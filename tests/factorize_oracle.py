"""Trial-division factorization, the oracle for the arithmetic generators."""


def factorize(n):
    """Trial-division oracle: list of (prime, exponent)."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out
