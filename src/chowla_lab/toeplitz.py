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
progressions; only classify_initials expands them into an owner table.
A term of t depends only on its own reference term and on z(j) for those
j, so t is made one chunk at a time: ``toeplitz build`` streams the
reference file to the output file in O(_CHUNK) memory, build_toeplitz
fills its N-byte result from the same chunks, and toeplitz_correlation
sums t*z over them.  The entropy bound reads only the good tails of z, so
``toeplitz analyze --ref`` holds no prefix either.

A function takes the reference z first, then q, as every kernel takes its
prefix; q >= 2 is checked in _progressions only, 1 <= ell < m in _tail_classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seqcore import SignSeq, _fill, _windows

CLASSIFY_LIMIT = 200_000_000
# tail length bound: reports list each type-1 tail offset as a Python int
_TAIL_LIMIT = 1 << 20
_PIECE = 1 << 18  # terms per chunk of t: its copy of z is a quarter of a read chunk


def _progressions(q: int, N: int) -> list[tuple[int, int]]:
    """(j, q^j) for every initial j with q^j <= N, in increasing j: j is
    initial when it lies in no progression of an earlier initial i."""
    if q < 2 or N < 1:
        raise ValueError(f"q must be >= 2, got {q}" if q < 2 else f"N must be >= 1, got {N}")
    found = []
    j = 1
    step = q
    while step <= N:
        if all((j - i) % q_i for i, q_i in found):
            found.append((j, step))
        j += 1
        step *= q
    return found


def classify_initials(q: int, N: int) -> np.ndarray:
    """Read-only int64 owner table: owner[n] for n = 1..N is the initial j
    with n in A_j (n itself when n is initial), and owner[0] = 0."""
    progressions = _progressions(q, N)
    if N > CLASSIFY_LIMIT:
        raise ValueError(f"N = {N} exceeds classification bound {CLASSIFY_LIMIT}")
    owner = np.arange(N + 1, dtype=np.int64)
    for j, step in progressions:
        owner[j + step :: step] = j
    owner.setflags(write=False)
    return owner


def _toeplitz_chunks(z_ref, q: int, N: int):
    """(z, t) chunks of at most _PIECE terms for n = 1..N in turn: z is the
    reference's, of a SignSeq or an opened .sqz z_ref, and t a new int8
    array; q and N are checked at the call.

    A position n is initial, so t(n) = z(n), or lies on the progression of
    the one initial j < n that owns it, so t(n) = z(j): each chunk of t is a
    copy of z's, with z(j) written onto every A_j position in it.  z(j) is
    taken from the chunk that holds j, which comes first."""
    progressions = _progressions(q, N)
    if len(z_ref) < N:
        raise ValueError(f"reference length {len(z_ref)} < N = {N}")

    def chunks():
        initial = {}  # j -> z(j), once its chunk is reached
        for hi, z in _windows(z_ref, 1, (*range(_PIECE, N, _PIECE), N)):  # z(lo+1..hi)
            t, lo = z.copy(), hi - z.size
            for j, step in progressions:
                if lo < j <= hi:
                    initial[j] = z[j - 1 - lo]
                first = max(j + step, lo + 1 + (j - lo - 1) % step)  # first n > lo of A_j, n > j
                if first <= hi:
                    t[first - 1 - lo :: step] = initial[j]
            yield z, t

    return chunks()


def build_toeplitz(z_ref, q: int, N: int) -> SignSeq:
    """t(n) = z(n) for initial n, else z(j) for the owning initial j."""
    return _fill(N, (t for _, t in _toeplitz_chunks(z_ref, q, N)))


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


def toeplitz_correlation(z_ref, q: int, N: int) -> CorrelationBound:
    """(1/N) sum t(n) z(n) for a reference z_ref, a SignSeq or an opened .sqz:
    an exact integer sum over the chunks of t, each times the reference's own."""
    support = total = 0
    for z, t in _toeplitz_chunks(z_ref, q, N):
        support += int(np.count_nonzero(z))
        total += int(np.sum(np.multiply(t, z, out=t), dtype=np.int64))
    square_mean = support / N
    return CorrelationBound(value=total / N, lower_bound=square_mean - 2.0 / (q - 1),
                            square_mean=square_mean, n=N, q=q)


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
    type1_counts_equal: bool  # true by construction: one pattern for every tail
    type1_count_observed: int
    masks_identical: bool  # true by construction
    type1_mask: tuple[int, ...]  # 0-based offsets within the tail window

    @property
    def type1_fraction(self) -> float:
        return self.type1_count_observed / self.L


def _tail_classes(q: int, m: int, ell: int, K: int) -> tuple[np.ndarray, np.ndarray]:
    """The owner j <= m of each of the last L = q^ell offsets of an interval
    ((k)q^m, (k+1)q^m], 0 where the position is initial (the same in every
    interval, as q^j divides q^m), and which k = 0..K-1 are good."""
    if not 1 <= ell < m:
        raise ValueError(f"need 1 <= ell < m, got ell={ell}, m={m}")
    # O(K + L) memory, int64 positions up to K*q^m; m < 62 first, as q^m >= 2^m
    if not (1 <= K <= CLASSIFY_LIMIT and m < 62 and K * q**m < 2**62
            and q**ell <= _TAIL_LIMIT):
        raise ValueError(f"need 1 <= K <= {CLASSIFY_LIMIT}, K*q^m < 2^62 and q^ell <= "
                         f"2^20, got q={q}, m={m}, ell={ell}, K={K}")
    L = q**ell
    qm = q**m
    progressions = _progressions(q, K * qm)
    pattern = np.zeros(L, dtype=np.int64)
    good = np.ones(K, dtype=bool)
    for j, step in progressions:
        if j <= m:
            # offset r is k*q^m - L + 1 + r, in A_j when r = j + L - 1 (mod q^j)
            pattern[(j + L - 1) % step :: step] = j
        elif (j - 1) % qm >= qm - L:
            # q^m divides q^j, so every j + s*q^j (s >= 1) has the offset of j
            good[(j - 1) // qm + step // qm :: step // qm] = False
    return pattern, good


def interval_analytics(q: int, m: int, ell: int, K: int) -> IntervalReport:
    pattern, good = _tail_classes(q, m, ell, K)
    L = pattern.size
    qm = q**m

    good_count = int(np.count_nonzero(good))
    mask = tuple(int(i) for i in np.flatnonzero(pattern)) if good_count else ()
    return IntervalReport(
        q=q, m=m, ell=ell, L=L, K=K, good_count=good_count,
        non_good_fraction=(K - good_count) / K,
        non_good_bound=float(q) ** -(qm - m - L),  # qm - m - L >= 0: 0.0 at worst
        # q^(ell-j) points of A_j per tail for each initial j <= ell, none for j > ell
        type1_count_expected=sum(L // step for _, step in _progressions(q, L)),
        type1_counts_equal=True,
        type1_count_observed=len(mask),
        masks_identical=True,
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


def toeplitz_entropy_lower_bound(z_ref, q: int, m: int, ell: int, K: int) -> EntropyLowerBound:
    """A good tail of t is z at its positions, read from a SignSeq or an opened
    .sqz z_ref by a walk that stops at either end of each tail, with z(j) on
    the offsets A_j owns (j <= m); np.unique tells the rows apart as L-byte values."""
    pattern, good = _tail_classes(q, m, ell, K)
    L = pattern.size
    if L > MAX_ENTROPY_BLOCK:
        raise ValueError(f"L = q^ell = {L} exceeds block bound {MAX_ENTROPY_BLOCK}")
    needed = K * q**m
    if len(z_ref) < needed:
        raise ValueError(f"reference length {len(z_ref)} < K*q^m = {needed}")
    starts = ((np.flatnonzero(good) + 1) * q**m - L + 1).tolist()
    tails, filled = np.empty((len(starts), L), dtype=np.int8), 0
    stops = [stop for start in starts for stop in (start - 1, start + L - 1)]
    for end, buf in _windows(z_ref, 1, stops) if starts else ():
        if end >= starts[filled // L]:  # a piece of the tail, not of the gap before it
            tails.reshape(-1)[filled : filled + buf.size] = buf
            filled += buf.size
    tails[:, pattern > 0] = next(_windows(z_ref, m, (1,)))[1][pattern[pattern > 0] - 1]  # z(1..m)
    distinct = int(np.unique(tails.view(np.dtype((np.void, L))).ravel()).size)
    return EntropyLowerBound(estimate=math.log2(distinct) / L if distinct else 0.0,
                             distinct_blocks=distinct, good_count=len(starts), L=L, m=m, K=K)
