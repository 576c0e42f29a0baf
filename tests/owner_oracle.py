"""Oracles for the Toeplitz owner table: a set-based owner map, and the
initial-position mask and exact density check on an owner array
(``owner[n]`` for n = 1..N, as ``classify_initials`` returns it)."""

import numpy as np


def brute_owner(q, N):
    """Set-based oracle: walk j upward, first unclaimed j opens A_j."""
    owner = {}
    for j in range(1, N + 1):
        if j in owner:
            continue
        owner[j] = j
        step = q**j
        pos = j + step
        while pos <= N:
            assert pos not in owner, (q, j, pos)
            owner[pos] = j
            pos += step
    return owner


def is_initial(owner):
    """Boolean array over 1..N (index 0 is n = 1): owner(n) == n."""
    return owner[1:] == np.arange(1, owner.size)


def non_initial_density_ok(owner, q):
    """Exact check that at most n/(q-1) of the first n positions are
    non-initial, at every prefix length n."""
    n = np.arange(1, owner.size)
    return bool(np.all(np.cumsum(~is_initial(owner)) * (q - 1) <= n))
