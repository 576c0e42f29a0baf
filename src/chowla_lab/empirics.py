"""Block statistics on sequence prefixes.

Block frequencies with overlapping windows, distinct-block complexity
profiles, a finite-scale entropy estimator, the randomized-sign extension
test (does the empirical measure of z give every block B the mass of B^2
split evenly over the 2^|supp B| sign patterns?), and the positive-frequency
block set.

Window counting conventions: a length-ell block in a prefix of length N has
denominator N - ell + 1.  ``_window_codes`` alone builds window keys, also for
``symbolicgen``'s recoding: big-endian base-3 codes (letter + 1, the first
letter most significant) that sort like the blocks and are exact up to length
39 in int64.  ``block_frequencies`` sorts the length-k codes in place and
counts their runs: one table, which the shorter lengths and the sign test's
z^2 are derived from; the recoding's heavy-window kernel,
``positive_frequency_blocks``, keeps the long runs of the sorted codes.
``_window_ranks``, the distinct-window kernel of ``complexity_profile`` and
``symbolicgen.sparse_embed``, re-ranks the keys instead, with int32 keys and
rank table while 3N + 3 < 2**31 (int64 above): per symbol, one byte of
digits, four of keys and at most twelve of table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seqcore import Block, SignSeq

MAX_FREQUENCY_ORDER = 24
_CODE_LENGTH_LIMIT = 39  # 3**39 - 1 < 2**63 <= 3**40 - 1
_CHUNK = 1 << 20  # terms per chunk where a whole-array call makes N-sized temporaries


def block_code(letters) -> int:
    """Base-3 code of a block, big-endian: codes sort like the blocks."""
    code = 0
    for v in letters:
        code = 3 * code + int(v) + 1
    return code


def code_to_block(code: int, length: int) -> Block:
    letters = []
    for _ in range(length):
        code, digit = divmod(code, 3)
        letters.append(digit - 1)
    return Block(tuple(letters[::-1]))


def _window_codes(values: np.ndarray, k: int, dtype=None):
    """Yield the base-3 codes of every length-ell window for ell = 1..k.

    The array yielded for ell has N - ell + 1 entries; entry i is the code
    of values[i : i + ell].  It is a view of one ``dtype`` buffer (by default
    int32 while 3**k < 2**31, else int64), made 3 * key + next letter in
    place for ell + 1: use, copy or overwrite it before that.
    """
    if not 1 <= k <= values.size:
        raise ValueError(f"window length {k} outside 1..{values.size}")
    if dtype is None:
        dtype = np.int32 if 3**k < 2**31 else np.int64
    digits = values + np.int8(1)
    codes = digits.astype(dtype)
    yield codes
    for ell in range(1, k):
        codes = codes[: digits.size - ell]
        codes *= 3
        codes += digits[ell:]
        yield codes


class EmpiricalMeasure:
    """Observed frequencies of all blocks of length <= max_order in a prefix.

    ``freq`` of an unobserved block is 0.  One table is stored, read-only:
    the sorted int64 codes and counts of the length-max_order blocks, and
    the last max_order - 1 letters; ``_table`` derives a shorter length.
    """

    __slots__ = ("max_order", "window_count", "_codes", "_counts", "_tail")

    def __init__(self, max_order: int, window_count: int, codes, counts, tail):
        self.max_order, self.window_count = max_order, window_count
        self._codes, self._counts, self._tail = codes, counts, tail
        codes.flags.writeable = counts.flags.writeable = False

    def denominator(self, length: int) -> int:
        return self.window_count - length + 1

    def _tail_codes(self, ell: int) -> list[int]:
        """Codes of the last max_order - ell length-ell windows: none starts a stored one."""
        return [block_code(self._tail[j : j + ell]) for j in range(self.max_order - ell)]

    def _table(self, ell: int):
        """Sorted int64 codes and counts of the length-ell blocks: the runs of
        the stored code // 3**(max_order - ell), plus the last windows."""
        if not 1 <= ell <= self.max_order:
            raise ValueError(f"block length {ell} outside 1..{self.max_order}")
        if ell == self.max_order:
            return self._codes, self._counts
        codes, last = self._codes // 3 ** (self.max_order - ell), np.sort(self._tail_codes(ell))
        i = np.searchsorted(codes, last)
        codes, counts = np.insert(codes, i, last), np.insert(self._counts, i, 1)
        runs = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
        return codes[runs], np.add.reduceat(counts, runs)

    def count(self, block) -> int:
        """Code c is the run [c, c + 1) * 3**(max_order - ell) of the stored
        codes, plus its matches among the last windows."""
        letters = (block if isinstance(block, Block) else Block(tuple(block))).letters
        ell = len(letters)
        if not 1 <= ell <= self.max_order:
            raise ValueError(f"block length {ell} outside 1..{self.max_order}")
        code, shift = block_code(letters), 3 ** (self.max_order - ell)
        lo, hi = np.searchsorted(self._codes, [code * shift, (code + 1) * shift])
        return int(self._counts[lo:hi].sum()) + self._tail_codes(ell).count(code)

    def freq(self, block) -> float:
        block = block if isinstance(block, Block) else Block(tuple(block))
        return self.count(block) / self.denominator(len(block))

    def items(self, length: int):
        """(Block, frequency) for every observed block of the length, lazily."""
        codes, counts = self._table(length)
        denom = self.denominator(length)
        return ((code_to_block(code, length), cnt / denom)
                for code, cnt in zip(codes.tolist(), counts.tolist()))


def block_frequencies(w: SignSeq, k: int) -> EmpiricalMeasure:
    """Overlapping-window frequencies of every block of length <= k.

    freq(B) = #{1 <= n <= N-ell+1 : w[n..n+ell-1] = B} / (N-ell+1).
    """
    if not 1 <= k <= MAX_FREQUENCY_ORDER:
        raise ValueError(f"k must be in 1..{MAX_FREQUENCY_ORDER}, got {k}")
    if len(w) < 10 * k:
        raise ValueError(f"prefix length {len(w)} < 10*k = {10 * k}")
    *views, windows = _window_codes(w.values, k)
    windows.sort()  # length k alone is tallied, by the runs of its sorted codes
    starts = np.flatnonzero(windows[1:] != windows[:-1])
    starts += 1
    codes = np.empty(starts.size + 1, dtype=np.int64)
    codes[0], codes[1:] = windows[0], windows[starts]
    del views, windows  # the window buffer is freed before the counts are made
    counts = np.diff(starts, prepend=0, append=len(w) - k + 1)
    return EmpiricalMeasure(k, len(w), codes, counts, tail=w.values[len(w) - k + 1 :].copy())


@dataclass(frozen=True)
class ComplexityProfile:
    """Distinct-window counts p_n for n = 1..n_max on a fixed prefix."""

    counts: np.ndarray  # counts[i] = p_{i+1}
    prefix_length: int

    @property
    def n_max(self) -> int:
        return int(self.counts.size)

    def p(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n = {n} outside 1..{self.n_max}")
        return int(self.counts[n - 1])

    @property
    def entropy_slope(self) -> np.ndarray:
        n = np.arange(1, self.n_max + 1, dtype=np.float64)
        return np.log2(self.counts.astype(np.float64)) / n


MAX_COMPLEXITY_ORDER = 512


def complexity_profile(w: SignSeq, n_max: int) -> ComplexityProfile:
    """Exact distinct-window counts for n = 1..n_max (``_window_ranks``)."""
    if not 1 <= n_max <= MAX_COMPLEXITY_ORDER:
        raise ValueError(f"n_max must be in 1..{MAX_COMPLEXITY_ORDER}, got {n_max}")
    N = len(w)
    if n_max > N:
        raise ValueError(f"n_max {n_max} exceeds prefix length {N}")
    counts = np.fromiter((p for p, _ in _window_ranks(w.values, n_max)), np.int64, n_max)
    return ComplexityProfile(counts=counts, prefix_length=N)


def _window_ranks(values: np.ndarray, n_max: int):
    """Yield (p_n, ranks) for n = 1..n_max: p_n distinct length-n windows,
    and ranks[i] the dense rank of values[i : i + n] among them.

    Rank refinement: each length's keys from ``_window_codes`` are replaced
    in place by their dense ranks, so the next key is 3 * (rank of the first
    n-1 letters) + (last letter + 1) < 3 * p_{n-1}.  Each step scatters the
    keys into a table of that size, takes its running sum and gathers the
    ranks back; there is no length cap from code packing.  ``ranks`` is the
    key buffer, which the next step overwrites: use or copy it before then.
    """
    dtype = np.int32 if 3 * values.size + 3 < 2**31 else np.int64
    p = 1  # p_0: the empty window
    for key in _window_codes(values, n_max, dtype):
        rank = np.zeros(3 * p, dtype=dtype)
        rank[key] = 1
        np.cumsum(rank, out=rank)
        p = int(rank[-1])
        rank -= 1
        for lo in range(0, key.size, _CHUNK):  # np.take copies an int32 index to intp
            chunk = key[lo : lo + _CHUNK]
            # keys < rank.size, so "clip" clamps nothing; "raise" buffers a copy
            np.take(rank, chunk, out=chunk, mode="clip")
        del rank  # before the next length's table is made
        yield p, key


@dataclass(frozen=True)
class EntropyEstimate:
    """Finite-scale entropy estimate: a median slope, not the true limit."""

    value: float
    uncertainty: float
    n_lo: int
    n_hi: int


def entropy_estimate(profile: ComplexityProfile, n_lo: int, n_hi: int) -> EntropyEstimate:
    """Median of log2(p_n)/n over n in [n_lo, n_hi]; the reported
    uncertainty is the max-min spread of the slopes over the window."""
    if not 1 <= n_lo < n_hi <= profile.n_max:
        raise ValueError(f"need 1 <= n_lo < n_hi <= {profile.n_max}, got [{n_lo}, {n_hi}]")
    slopes = profile.entropy_slope[n_lo - 1 : n_hi]
    return EntropyEstimate(
        value=float(np.median(slopes)),
        uncertainty=float(slopes.max() - slopes.min()),
        n_lo=n_lo,
        n_hi=n_hi,
    )


@dataclass(frozen=True)
class SignExtensionReport:
    """Result of the randomized-sign extension audit."""

    passed: bool
    max_violation: float
    witness: Block | None
    violations: tuple[tuple[Block, float], ...]
    k: int
    tol: float
    audited_blocks: int


MAX_SIGN_TEST_ORDER = 16
AUDIT_FACTOR = 2.0


def sign_extension_test(
    z: SignSeq, k: int, tol: float, audit_factor: float = AUDIT_FACTOR
) -> SignExtensionReport:
    """Check whether z distributes signs independently over the support of
    its squared word: for every block B of length <= k whose squared block
    has frequency above audit_factor*tol in z^2, the frequency of B in z
    must match 2**(-|supp B|) times that frequency within tol.

    Rare squared blocks (frequency <= audit_factor*tol) are skipped: they
    cannot be statistically resolved at finite scale.  Returns the worst
    deviation, its witness (the first maximum) and all blocks whose deviation
    exceeds tol, in (length, little-endian squared code, block code) order.
    z^2's counts are sums of z's over each support; an unobserved sign
    pattern deviates by its target and is enumerated only where it places
    the witness or exceeds tol.
    """
    if not 1 <= k <= MAX_SIGN_TEST_ORDER:
        raise ValueError(f"k must be in 1..{MAX_SIGN_TEST_ORDER}, got {k}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if not (math.isfinite(audit_factor) and audit_factor >= 0):
        raise ValueError(f"audit_factor must be finite and >= 0, got {audit_factor}")
    measure = block_frequencies(z, k)
    max_violation, witness, violations, audited = 0.0, None, [], 0
    for ell in range(1, k + 1):
        codes, counts = measure._table(ell)
        denom = len(z) - ell + 1
        # little-endian support masks, bit j for letter j: they sort squares last letter first
        masks = sum((codes // 3**i % 3 != 1) << (ell - 1 - i) for i in range(ell))
        squared = np.zeros(2**ell, dtype=np.int64)
        np.add.at(squared, masks, counts)
        support = np.bitwise_count(np.arange(2**ell)).astype(np.int64)
        freq2 = squared / denom
        audit = (squared > 0) & ~(freq2 <= audit_factor * tol)
        audited += int(np.count_nonzero(audit))
        target = freq2 / 2.0**support
        # 0 off the audited squares: it never beats 0.0 or exceeds tol
        deviation = np.abs(counts / denom - target[masks]) * audit[masks]
        unseen = audit & (np.bincount(masks, minlength=2**ell) < 1 << support)
        top = max(deviation.max(), target[unseen].max(initial=0.0))
        new_max = top > max_violation
        more_masks = np.flatnonzero(unseen & ((target > tol) | new_max & (target == top)))
        more = np.zeros(more_masks.size, dtype=np.int64)
        for i in range(ell):
            reps = 1 + (more_masks >> i & 1)
            pairs = np.flatnonzero(np.repeat(reps == 2, reps))
            more_masks, more = np.repeat(more_masks, reps), np.repeat(3 * more + 1, reps)
            more[pairs] += np.tile([-1, 1], pairs.size // 2)  # letters -1 and 1
        fresh = codes.take(np.searchsorted(codes, more), mode="clip") != more  # codes are sorted
        masks, codes = np.append(masks, more_masks[fresh]), np.append(codes, more[fresh])
        deviation = np.append(deviation, target[more_masks[fresh]])
        pick = np.flatnonzero((deviation > tol) | new_max & (deviation == top))
        pick = pick[np.lexsort((codes[pick], masks[pick]))]
        if new_max:
            max_violation = float(top)
            witness = code_to_block(int(codes[pick[np.argmax(deviation[pick] == top)]]), ell)
        pick = pick[deviation[pick] > tol]
        violations += [(code_to_block(c, ell), d)
                       for c, d in zip(codes[pick].tolist(), deviation[pick].tolist())]
        del codes, counts, masks, deviation  # before the next length's table is made
    return SignExtensionReport(
        passed=max_violation <= tol,
        max_violation=max_violation,
        witness=witness,
        violations=tuple(violations),
        k=k,
        tol=tol,
        audited_blocks=audited,
    )


def positive_frequency_blocks(w: SignSeq, n: int, threshold: float) -> np.ndarray:
    """Sorted int64 codes (``code_to_block`` decodes one) of the length-n
    blocks whose frequency exceeds ``threshold``: a finite-scale stand-in
    for the positive-upper-frequency subshift.

    The window codes are sorted in place.  With t the least count whose
    frequency t / size exceeds threshold, a code is kept when its first
    sorted entry equals the entry t - 1 places on.
    """
    if not 1 <= n <= _CODE_LENGTH_LIMIT:
        raise ValueError(f"n must be in 1..{_CODE_LENGTH_LIMIT}, got {n}")
    if len(w) < n:
        raise ValueError(f"prefix length {len(w)} < n = {n}")
    size = len(w) - n + 1
    if not threshold < 1.0:  # also nan: no frequency exceeds it
        return np.empty(0, dtype=np.int64)
    t = max(1, int(threshold * size)) if threshold > 0.0 else 1
    while t / size <= threshold:  # ends by t = size, as size / size > threshold
        t += 1
    *_, srt = _window_codes(w.values, n)
    srt.sort()
    m = size - t + 1
    keep = srt[:m] == srt[t - 1 :]  # entries of a run of at least t ...
    for lo in range(1, m, _CHUNK):  # ... that start it; chunked, with no N-sized temporary
        hi = min(lo + _CHUNK, m)
        keep[lo:hi] &= srt[lo:hi] != srt[lo - 1 : hi - 1]
    return srt[:m][keep].astype(np.int64, copy=False)
