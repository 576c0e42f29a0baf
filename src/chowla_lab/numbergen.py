"""Arithmetic sequence generators via a segmented sieve.

Provides:
- mobius_prefix(N):    mu(n) for n = 1..N  (mu(n) = (-1)^k for squarefree n
                       with k distinct prime factors, else 0)
- liouville_prefix(N): lambda(n) = (-1)^Omega(n), Omega counting multiplicity
- mu_b_prefix(B, N):   the generalized Mobius function for a finite set
                       B = {b_k = a_k**2} with pairwise coprime roots a_k:
                       0 when some b_k | n, else (-1)^#{k : a_k | n}
- is_admissible / admissible_block_count: the residue-class admissibility
  test for {0,1} blocks and exact admissible-block counting

mu and lambda share one segmented sieve of Eratosthenes (``_sign_sieve``)
over the primes p <= sqrt(N).  Per segment of _SEGMENT terms it keeps one
uint8 accumulator: each sieved prime power q = p**k (mu: only q = p) adds
the odd weight c_p = 2*floor(3*log2 p) + 1 at the multiples of q.  Bit 0 of
the sum is the parity of the sieved prime factors, and the sum decides
whether one prime factor above sqrt(N) remains: it does exactly when the sum
is below 5*floor(log2 n) (proof in ``_sign_sieve``).  Memory: the N-byte int8
output plus about 2*_SEGMENT bytes.  Every step is exact integer arithmetic,
so outputs are exact (no probabilistic factoring).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .seqcore import SignSeq, _as_symbol_array


def _primes_upto(limit: int) -> np.ndarray:
    """Primes <= limit by Eratosthenes (bool sieve)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.flatnonzero(is_p).astype(np.int64)


_SEGMENT = 1 << 20  # terms per sieve segment


def _sign_sieve(N: int, squarefree: bool) -> SignSeq:
    """lambda(1..N), or mu(1..N) when ``squarefree`` is set, by a segmented
    sieve of Eratosthenes over the primes p <= sqrt(N).

    Per segment, each prime power q = p**k <= n adds c_p = 2*floor(3*log2 p)
    + 1 to a uint8 ``acc`` at the multiples of q (mu: only q = p, and the
    multiples of p**2 are zeroed in the output).  Every c_p is odd, so bit 0
    of acc(n) is the parity of n's prime factors up to sqrt(N), counted with
    multiplicity for lambda.  At most one prime factor r > sqrt(N) is left,
    and with k = floor(log2 n) it exists exactly when acc(n) < 5k:

    - For p >= 2, 5*log2 p <= 6*log2 p - 1 <= c_p <= 6*log2 p + 1 <= 7*log2 p.
    - No such r: the sieved powers multiply to n, so acc(n) >= 5*log2 n >= 5k.
    - Such an r: n = m*r with m < r, since r**2 > N >= n, so acc(n) <=
      7*log2 m (mu: for squarefree m; other n are zeroed).  With L = log2 m,
      n > m**2 gives 5k > 5*(2L - 1) >= 7L once m >= 4; m = 1, 2, 3 have
      acc(n) = 0, 7, 9 below 5k with k >= 1, 2, 3 (n >= 2, 6, 15).

    The flip is therefore ``acc < 5k``, one comparison per dyadic piece
    [2**k, 2**(k+1)) of the segment.  acc(n) <= 7*log2 n stays below 256
    while N < 2**36; larger N is refused.  Memory: N bytes plus 2*_SEGMENT.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N >= 1 << 36:
        raise ValueError(f"N = {N} is too large for the sieve: need N < 2**36")
    out = np.ones(N, dtype=np.int8)  # out[i] is term i + 1
    weights = [(p, 2 * (p**3).bit_length() - 1) for p in map(int, _primes_upto(math.isqrt(N)))]
    for lo in range(1, N + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, N + 1)
        seg = out[lo - 1 : hi - 1]
        acc = np.zeros(hi - lo, dtype=np.uint8)
        for p, c in weights:
            q = p
            while q < hi:
                first = (-lo) % q
                if squarefree and q > p:
                    seg[first::q] = 0
                    break
                acc[first::q] += c
                q *= p
        for k in range(lo.bit_length() - 1, (hi - 1).bit_length()):
            piece = acc[max(lo, 1 << k) - lo : min(hi, 2 << k) - lo]  # n in [2**k, 2**(k+1))
            piece ^= piece < 5 * k  # a prime above sqrt(N) flips bit 0
        acc &= seg.view(np.uint8)  # seg is 0 or 1 here: keep bit 0 where it is 1
        acc <<= 1
        seg -= acc.view(np.int8)  # 1 - 2 = -1 where the parity is odd
    return SignSeq._wrap(out)


def mobius_prefix(N: int) -> SignSeq:
    """The Mobius function mu(1..N), in N bytes plus O(_SEGMENT)."""
    return _sign_sieve(N, squarefree=True)


def liouville_prefix(N: int) -> SignSeq:
    """The Liouville function lambda(1..N), values in {-1, 1}."""
    return _sign_sieve(N, squarefree=False)


@dataclass(frozen=True)
class BSet:
    """A set of perfect squares b_k = a_k**2 with pairwise coprime roots.

    ``b_values`` and ``a_values`` are sorted and aligned.  Construct with
    :meth:`from_squares`, which checks coprimality.  Over every prime square
    mu_b is mu itself, which ``mobius_prefix`` sieves.
    """

    b_values: tuple[int, ...]
    a_values: tuple[int, ...]

    @classmethod
    def from_squares(cls, b_values) -> "BSet":
        bs = sorted(int(b) for b in b_values)
        if not bs:
            raise ValueError("BSet must be nonempty")
        roots = []
        for b in bs:
            if b < 2:
                raise ValueError(f"b values must be >= 2, got {b}")
            a = math.isqrt(b)
            if a * a != b:
                raise ValueError(f"{b} is not a perfect square")
            roots.append(a)
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                if math.gcd(roots[i], roots[j]) != 1:
                    raise ValueError(
                        f"roots {roots[i]} and {roots[j]} are not coprime"
                    )
        return cls(tuple(bs), tuple(roots))

    def __len__(self) -> int:
        return len(self.b_values)


def mu_b_prefix(bset: BSet, N: int) -> SignSeq:
    """Generalized Mobius prefix for ``bset``: zero on multiples of any b_k,
    otherwise (-1) to the number of roots a_k dividing n."""
    if N < 1:
        raise ValueError("N must be >= 1")
    out = np.ones(N + 1, dtype=np.int8)
    for a in bset.a_values:
        if a <= N:
            out[a::a] *= -1
    for b in bset.b_values:
        if b <= N:
            out[b::b] = 0
    return SignSeq._wrap(out[1:])


def is_admissible(block, bset: BSet) -> bool:
    """True iff the support of a {0,1} block misses a residue class mod b
    for every b in ``bset`` with b <= len(block).

    Moduli b > len(block) are vacuously satisfied: at most len(block) < b
    classes can occur.  Accepts a Block, SignSeq, or array of 0/1 letters.
    """
    letters = _as01(block)
    support = np.flatnonzero(letters)
    n = letters.size
    for b in bset.b_values:
        if b > n:
            break
        if np.unique(support % b).size >= b:
            return False
    return True


def _as01(block) -> np.ndarray:
    if isinstance(block, SignSeq):
        arr = block.values
    else:  # a Block or a list of letters, checked before the int8 cast
        arr = _as_symbol_array(getattr(block, "letters", block))
    if ((arr != 0) & (arr != 1)).any():
        raise ValueError("admissibility is defined for blocks over {0,1}")
    return arr


ADMISSIBLE_COUNT_LIMIT = 30


def admissible_block_count(n: int, bset: BSet) -> int:
    """Exact number of admissible {0,1} blocks of length n.

    Depth-first extension position by position, pruning any branch whose
    support already occupies all residue classes for some modulus, with
    memoization on (position, occupied-class state).  n is capped at
    ADMISSIBLE_COUNT_LIMIT to bound the search.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > ADMISSIBLE_COUNT_LIMIT:
        raise ValueError(f"n = {n} exceeds exhaustive-search limit {ADMISSIBLE_COUNT_LIMIT}")
    moduli = [b for b in bset.b_values if b <= n]

    @functools.cache
    def count(pos: int, states: tuple[int, ...]) -> int:
        if pos == n:
            return 1
        # letter 0 never violates; letter 1 occupies class pos mod b of each b
        grown = tuple(occupied | 1 << pos % b for b, occupied in zip(moduli, states))
        fits = all(occupied != (1 << b) - 1 for b, occupied in zip(moduli, grown))
        return count(pos + 1, states) + (count(pos + 1, grown) if fits else 0)

    return count(0, (0,) * len(moduli))
