"""Sieve-free oracles for the summatory functions M(x) = sum mu(n) and
L(x) = sum lambda(n) over n <= x.

Shares no code with ``chowla_lab.numbergen``.  A small mu sieve up to
u ~ x**(2/3) gives M(v) for v <= u.  The values M(x // d) above u follow in
increasing order from sum_{k <= v} M(v // k) = 1 (Deleglise and Rivat,
"Computing the summation of the Mobius function", Exp. Math. 5, 1996), each
in one pass of O(sqrt(v)); then L(x) = sum_{d <= sqrt(x)} M(x // d**2).
"""

import math

import numpy as np


def _mobius_upto(u):
    """mu(0..u), with mu(0) = 0, by whole-array flips over the primes up to
    sqrt(u); an int64 product of the flipped primes that falls short of n
    leaves one prime factor above sqrt(u)."""
    root = math.isqrt(u)
    is_p = np.ones(root + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    mu = np.ones(u + 1, dtype=np.int8)
    prod = np.ones(u + 1, dtype=np.int64)
    for p in map(int, np.flatnonzero(is_p)):
        mu[p::p] *= -1
        prod[p::p] *= p
        mu[p * p :: p * p] = 0
    mu[prod != np.arange(u + 1)] *= -1
    mu[0] = 0
    return mu


def summatory(x):
    """(M(x), L(x)) for x >= 1.  L comes from lambda(n) = sum of mu(n / d**2)
    over the d with d**2 | n."""
    u = max(round(x ** (2 / 3)), math.isqrt(x))
    small = np.cumsum(_mobius_upto(u), dtype=np.int64)  # small[v] = M(v), v <= u
    D = x // (u + 1)  # x // d > u exactly for d <= D
    big = np.zeros(D + 1, dtype=np.int64)  # big[d] = M(x // d), d <= D
    for d in range(D, 0, -1):
        v = x // d
        s = math.isqrt(v)
        k = np.arange(2, s + 1, dtype=np.int64)
        above = d * k <= D  # v // k = x // (d*k) is above u
        direct = big[d * k[above]].sum() + small[v // k[~above]].sum()
        q = np.arange(1, s + 1, dtype=np.int64)
        grouped = small[q] @ (v // q - v // (q + 1))  # the k > s, by q = v // k
        if v // s == s:  # k = s was counted in both sums
            grouped -= small[s]
        big[d] = 1 - direct - grouped
    sq = np.arange(1, math.isqrt(x) + 1, dtype=np.int64) ** 2
    L = big[sq[sq <= D]].sum() + small[x // sq[sq > D]].sum()
    return int(big[1] if D else small[x]), int(L)
