"""Toeplitz sequences built from nested arithmetic progressions.

For a base q >= 2, the progressions A_j = {j + n*q^j : n >= 0} for "initial"
j (those j belonging to no earlier progression) partition the positive
integers.  Copying z(j) onto all of A_j produces a Toeplitz sequence t that
agrees with z on initial positions and repeats z(j) with period q^j
elsewhere; t provably correlates with z whenever the support of z has
positive density, and the diversity of its blocks at the tails of the
intervals ((k)q^m, (k+1)q^m] yields entropy lower bounds.

Only j with q^j <= N can own any position <= N other than j itself, so
every function here works from the at most floor(log_q N) such initial
progressions: build_toeplitz copies z(j) along each of them onto a copy of
the reference, and classify_initials writes its owner table the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seqcore import SignSeq

CLASSIFY_LIMIT = 200_000_000


@dataclass(frozen=True)
class ToeplitzSpec:
    """Progression base q >= 2 and the reference sequence the values copy."""

    q: int
    z_ref: SignSeq

    def __post_init__(self):
        if self.q < 2:
            raise ValueError(f"q must be >= 2, got {self.q}")


class InitialTable:
    """Owner table for 1..N: owner(n) is the initial j with n in A_j
    (owner(n) = n exactly when n is initial)."""

    __slots__ = ("q", "N", "owner")

    def __init__(self, q: int, N: int, owner: np.ndarray):
        self.q = q
        self.N = N
        self.owner = owner  # owner[n] for n = 1..N; owner[0] unused

    def is_initial(self) -> np.ndarray:
        """Boolean array over 1..N (index 0 corresponds to n = 1)."""
        return self.owner[1:] == np.arange(1, self.N + 1, dtype=self.owner.dtype)

    def non_initial_density_ok(self) -> bool:
        """Exact check of density <= 1/(q-1) at every prefix length."""
        non_initial = ~self.is_initial()
        running = np.cumsum(non_initial, dtype=np.int64)
        n = np.arange(1, self.N + 1, dtype=np.int64)
        return bool(np.all(running * (self.q - 1) <= n))


def _progressions(q: int, N: int) -> list[tuple[int, int]]:
    """(j, q^j) for every initial j with q^j <= N, in increasing j: j is
    initial when it lies in no progression of an earlier initial i."""
    if q < 2 or N < 1:
        raise ValueError(f"need q >= 2 and N >= 1, got q={q}, N={N}")
    if N > CLASSIFY_LIMIT:
        raise ValueError(f"N = {N} exceeds classification bound {CLASSIFY_LIMIT}")
    found = []
    j = 1
    step = q
    while step <= N:
        if all((j - i) % q_i for i, q_i in found):
            found.append((j, step))
        j += 1
        step *= q
    return found


def classify_initials(q: int, N: int) -> InitialTable:
    progressions = _progressions(q, N)
    owner = np.arange(N + 1, dtype=np.int64)
    for j, step in progressions:
        owner[j + step :: step] = j
    owner.setflags(write=False)
    return InitialTable(q=q, N=N, owner=owner)


def _toeplitz_values(spec: ToeplitzSpec, N: int) -> np.ndarray:
    """t(1..N) as a writable int8 array; build_toeplitz wraps it."""
    if len(spec.z_ref) < N:
        raise ValueError(f"reference length {len(spec.z_ref)} < N = {N}")
    progressions = _progressions(spec.q, N)
    t = spec.z_ref.values[:N].copy()
    for j, step in progressions:
        # j is initial, so no progression writes t[j - 1]
        t[j - 1 + step :: step] = t[j - 1]
    return t


def build_toeplitz(spec: ToeplitzSpec, N: int) -> SignSeq:
    """t(n) = z(n) for initial n, else z(j) for the owning initial j."""
    return SignSeq._wrap(_toeplitz_values(spec, N))


@dataclass(frozen=True)
class CorrelationBound:
    """Observed correlation (1/N) sum t(n) z(n) and its proof lower bound
    (1/N) sum z(n)^2 - 2/(q-1), which holds at every finite N."""

    value: float
    lower_bound: float
    square_mean: float
    n: int
    q: int

    @property
    def holds(self) -> bool:
        return self.value >= self.lower_bound


def toeplitz_correlation(spec: ToeplitzSpec, N: int) -> CorrelationBound:
    t = _toeplitz_values(spec, N)
    z = spec.z_ref.values[:N]
    t *= z
    value = float(np.sum(t, dtype=np.float64)) / N
    square_mean = int(np.count_nonzero(z)) / N
    return CorrelationBound(
        value=value,
        lower_bound=square_mean - 2.0 / (spec.q - 1),
        square_mean=square_mean,
        n=N,
        q=spec.q,
    )


@dataclass(frozen=True)
class IntervalReport:
    """Classification of the last L = q^ell positions of each interval
    ((k)q^m, (k+1)q^m], k = 0..K-1.

    A non-initial position is type 1 when its owner j is <= m (the pattern
    of those repeats identically in every interval) and type 2 otherwise;
    an interval index k is good when its tail contains no type-2 position.
    """

    q: int
    m: int
    ell: int
    L: int
    K: int
    good_count: int
    non_good_fraction: float
    non_good_bound: float
    type1_count_expected: int
    type1_counts_equal: bool
    type1_count_observed: int
    masks_identical: bool
    type1_mask: tuple[int, ...]  # 0-based offsets within the tail window

    @property
    def type1_fraction(self) -> float:
        return self.type1_count_observed / self.L


def _tail_owners(q: int, m: int, ell: int, K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Owners of the last L = q^ell positions of each interval ((k)q^m,
    (k+1)q^m], k = 0..K-1, as a K x L array, which of those positions are
    non-initial, and which k are good (no type-2 position in the tail)."""
    if K < 1:
        raise ValueError("K must be >= 1")
    L = q**ell
    qm = q**m
    # classify first: it bounds K*q^m before any int64 arithmetic on it
    owner = classify_initials(q, K * qm).owner
    idx = np.arange(1, K + 1, dtype=np.int64)[:, None] * qm + np.arange(1 - L, 1, dtype=np.int64)
    owners = owner[idx]
    del owner  # free the table before the tail comparisons
    non_initial = owners != idx
    good = ~(non_initial & (owners > m)).any(axis=1)
    return owners, non_initial, good


def interval_analytics(spec: ToeplitzSpec, m: int, ell: int, K: int) -> IntervalReport:
    q = spec.q
    if not 1 <= ell < m:
        raise ValueError(f"need 1 <= ell < m, got ell={ell}, m={m}")
    _, non_initial, good = _tail_owners(q, m, ell, K)
    L = q**ell
    qm = q**m

    good_count = int(np.count_nonzero(good))
    type1_masks = non_initial[good]
    if good_count:
        first = type1_masks[0]
        masks_identical = bool(np.all(type1_masks == first[None, :]))
        observed = int(first.sum())
        counts_equal = bool(np.all(type1_masks.sum(axis=1) == observed))
        mask = tuple(int(i) for i in np.flatnonzero(first))
    else:
        masks_identical = True
        observed = 0
        counts_equal = True
        mask = ()
    try:
        bound = float(q) ** -(qm - m - L)
    except OverflowError:
        bound = 0.0
    return IntervalReport(
        q=q,
        m=m,
        ell=ell,
        L=L,
        K=K,
        good_count=good_count,
        non_good_fraction=(K - good_count) / K,
        non_good_bound=bound,
        type1_count_expected=(q**ell - 1) // (q - 1),
        type1_counts_equal=counts_equal,
        type1_count_observed=observed,
        masks_identical=masks_identical,
        type1_mask=mask,
    )


MAX_ENTROPY_BLOCK = 40


@dataclass(frozen=True)
class EntropyLowerBound:
    """log2(distinct tail blocks of t over good k) / L: a finite-scale lower
    bound estimate for the entropy of the Toeplitz sequence."""

    estimate: float
    distinct_blocks: int
    good_count: int
    L: int
    m: int
    K: int


def toeplitz_entropy_lower_bound(spec: ToeplitzSpec, m: int, ell: int, K: int) -> EntropyLowerBound:
    q = spec.q
    if not 1 <= ell < m:
        raise ValueError(f"need 1 <= ell < m, got ell={ell}, m={m}")
    L = q**ell
    if L > MAX_ENTROPY_BLOCK:
        raise ValueError(f"L = q^ell = {L} exceeds block bound {MAX_ENTROPY_BLOCK}")
    needed = K * q**m
    if len(spec.z_ref) < needed:
        raise ValueError(f"reference length {len(spec.z_ref)} < K*q^m = {needed}")
    owners, _, good = _tail_owners(q, m, ell, K)
    # t(n) = z(owner(n)), so the tail blocks of t are read straight from z
    blocks = spec.z_ref.values[owners[good] - 1]
    distinct = int(np.unique(blocks, axis=0).shape[0]) if blocks.size else 0
    estimate = math.log2(distinct) / L if distinct else 0.0
    return EntropyLowerBound(
        estimate=estimate,
        distinct_blocks=distinct,
        good_count=int(np.count_nonzero(good)),
        L=L,
        m=m,
        K=K,
    )
