"""Block statistics on sequence prefixes.

Block frequencies with overlapping windows, distinct-block complexity
profiles, a finite-scale entropy estimator, the randomized-sign extension
test (does the empirical measure of z give every block B the mass of B^2
split evenly over the 2^|supp B| sign patterns?), and the positive-frequency
block set.

Window counting conventions: a length-ell block in a prefix of length N has
denominator N - ell + 1.  ``_window_codes`` alone builds window codes, by
prefix doubling, also for ``symbolicgen``: big-endian base-3 codes
(letter + 1, the first letter most significant) that sort like the blocks and
are exact up to length 39, in the dtype ``_code_dtype`` picks: int32, uint32
at length 20, or int64.  ``block_frequencies``,
``complexity_profile`` and the heavy-window kernel ``positive_frequency_blocks``
sort one length's codes once and then only read them: the codes d letters
shorter are their quotients by 3**d, still sorted, so a shorter code c spans
the entries in [c, c + 1) * 3**d.  Past 39 letters a profile code starts with
the dense rank of the window's first letters.  Every pass over an N-sized
array, here and in ``symbolicgen``, runs in chunks of ``_CHUNK``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seqcore import Block, SignSeq

MAX_FREQUENCY_ORDER = 24
_CODE_LENGTH_LIMIT = 39  # 3**39 - 1 < 2**63 <= 3**40 - 1
_CHUNK = 1 << 16  # entries per cache-sized chunk of every pass over an N-sized array


def block_code(letters) -> int:
    """Base-3 code of a block, big-endian: codes sort like the blocks."""
    code = 0
    for v in letters:
        code = 3 * code + int(v) + 1
    return code


def code_to_block(code: int, length: int) -> Block:
    return Block(tuple(code // 3**i % 3 - 1 for i in reversed(range(length))))


def _code_dtype(top: int) -> type:
    """The narrowest of int32, uint32 and int64 that holds the codes 0..top - 1."""
    return np.int32 if top <= 2**31 else np.uint32 if top <= 2**32 else np.int64


def _window_codes(values: np.ndarray, k: int) -> np.ndarray:
    """Base-3 codes of the length-k windows: entry i of the N - k + 1 codes
    is the code of values[i : i + k], in ``_code_dtype(3**k)``: uint32 at 20.

    Prefix doubling, about log2 k passes: the length-1 codes are values + 1,
    a pass makes code_2m[i] = code_m[i] * 3**m + code_m[i + m] in place, and
    each set bit of k below the top then appends one letter, 3 * code +
    values[i + 2m] + 1.  A pass runs in ascending chunks of ``_CHUNK``
    through a scratch buffer, as the second term is read m places on.  Letters
    are added in uint8, where -1 + 1 wraps to 0: int8 does not cast to uint32.
    """
    if not 1 <= k <= values.size:
        raise ValueError(f"window length {k} outside 1..{values.size}")
    dtype, letters = _code_dtype(3**k), values.view(np.uint8)
    codes = np.add(letters, np.uint8(1), out=np.empty(values.size, dtype))
    scratch = np.empty(min(_CHUNK, values.size), dtype=dtype)
    m = 1
    for bit in reversed(range(k.bit_length() - 1)):
        grow = k >> bit & 1
        size = codes.size - m - grow
        for lo in range(0, size, _CHUNK):
            hi = min(lo + _CHUNK, size)
            chunk = codes[lo:hi]
            np.add(np.multiply(chunk, 3**m, out=scratch[: hi - lo]), codes[lo + m : hi + m], chunk)
            if grow:
                chunk *= 3
                chunk += letters[lo + 2 * m : hi + 2 * m] + np.uint8(1)
        codes = codes[:size]
        m = 2 * m + grow
    return codes


class EmpiricalMeasure:
    """Observed frequencies of all blocks of length <= max_order in a prefix.

    ``freq`` of an unobserved block is 0.  One table is stored, read-only:
    the sorted int64 codes and counts of the length-max_order blocks, and
    for each length ell the codes of the last max_order - ell windows, which
    start no stored window; ``_table`` derives a shorter length.
    """

    __slots__ = ("max_order", "window_count", "_codes", "_counts", "_last")

    def __init__(self, max_order: int, window_count: int, codes, counts, last):
        self.max_order, self.window_count = max_order, window_count
        self._codes, self._counts, self._last = codes, counts, last
        codes.flags.writeable = counts.flags.writeable = False

    def denominator(self, length: int) -> int:
        return self.window_count - length + 1

    def _table(self, ell: int):
        """Sorted int64 codes and counts of the length-ell blocks: the runs of
        the stored code // 3**(max_order - ell), then the last windows merged in."""
        if not 1 <= ell <= self.max_order:
            raise ValueError(f"block length {ell} outside 1..{self.max_order}")
        if ell == self.max_order:
            return self._codes, self._counts
        codes = self._codes // 3 ** (self.max_order - ell)
        runs = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
        codes, counts = codes[runs], np.add.reduceat(self._counts, runs)
        del runs  # before the merge copies the table
        last, extra = np.unique(self._last[ell - 1], return_counts=True)
        i = np.searchsorted(codes, last)
        seen = codes.take(i, mode="clip") == last
        counts[i[seen]] += extra[seen]
        i, last, extra = i[~seen], last[~seen], extra[~seen]
        return np.insert(codes, i, last), np.insert(counts, i, extra)

    def count(self, block) -> int:
        """Code c is the run [c, c + 1) * 3**(max_order - ell) of the stored
        codes, plus its matches among the last windows."""
        letters = (block if isinstance(block, Block) else Block(tuple(block))).letters
        ell = len(letters)
        if not 1 <= ell <= self.max_order:
            raise ValueError(f"block length {ell} outside 1..{self.max_order}")
        code, shift = block_code(letters), 3 ** (self.max_order - ell)
        lo, hi = np.searchsorted(self._codes, [code * shift, (code + 1) * shift])
        return int(self._counts[lo:hi].sum() + np.count_nonzero(self._last[ell - 1] == code))

    def freq(self, block) -> float:
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
    tail = w.values[len(w) - k + 1 :]  # its length-ell windows are the last k - ell
    last = [_window_codes(tail, ell).astype(np.int64) for ell in range(1, k)]
    last.append(np.empty(0, dtype=np.int64))
    windows = _window_codes(w.values, k)
    windows.sort()  # length k alone is tallied, by the runs of its sorted codes
    starts = [np.zeros(1, dtype=np.intp)]
    for lo in range(1, windows.size, _CHUNK):
        hi = min(lo + _CHUNK, windows.size)
        starts.append(lo + np.flatnonzero(windows[lo:hi] != windows[lo - 1 : hi - 1]))
    starts = np.concatenate(starts)
    codes = windows[starts].astype(np.int64)
    del windows  # the window buffer is freed before the counts are made
    counts = np.diff(starts, append=len(w) - k + 1)
    return EmpiricalMeasure(k, len(w), codes, counts, last)


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
    """Exact distinct-window counts for n = 1..n_max, in levels: a level codes
    a window of length done + j, j <= J, as the dense rank (one of p) of its
    first done letters * 3**j + the base-3 code of the rest, J the most letters
    (39 at done = 0) with p * 3**J <= 2**63.  It sorts its longest codes once,
    reads the shorter ones as their quotients by 3, and ranks the distinct
    ones for the next level; once every window is distinct, p_n = N - n + 1."""
    if not 1 <= n_max <= MAX_COMPLEXITY_ORDER:
        raise ValueError(f"n_max must be in 1..{MAX_COMPLEXITY_ORDER}, got {n_max}")
    N, values = len(w), w.values
    if n_max > N:
        raise ValueError(f"n_max {n_max} exceeds prefix length {N}")
    def compose(start, j):  # codes of the length done + j windows from start on
        codes = _window_codes(values[done + start :], j).astype(dtype, copy=False)
        for lo in range(0, codes.size if done else 0, _CHUNK):
            chunk = codes[lo : lo + _CHUNK]
            chunk += rank[start + lo : start + lo + chunk.size].astype(dtype) * dtype(3**j)
        return codes
    counts = N + 1 - np.arange(1, n_max + 1, dtype=np.int64)  # p_n once all are distinct
    done, p, rank = 0, 1, None
    while True:
        J = min(n_max - done, max(j for j in range(1, 40) if p * 3**j <= 2**63))
        dtype, size = _code_dtype(p * 3**J), N - done - J + 1
        srt = compose(0, J)
        srt.sort()  # read-only from here
        counts[done : done + J] = 1
        for lo in range(0, size - 1, _CHUNK):  # each chunk overlaps the last by one entry
            chunk = srt[lo : lo + _CHUNK + 1].copy()
            for j in range(J, 0, -1):
                counts[done + j - 1] += np.count_nonzero(chunk[1:] != chunk[:-1])
                chunk //= 3
                chunk = chunk.astype(_code_dtype(p * 3 ** (j - 1)), copy=False)  # narrower once they fit
        for j in range(1, J):  # the last J - j windows start no sorted one
            key, shift = np.unique(compose(size, j)), 3 ** (J - j)
            lo, hi = np.searchsorted(srt, [key * shift, (key + 1) * shift])
            counts[done + j - 1] += np.count_nonzero(lo == hi)
        if done + J == n_max or counts[done + J - 1] == size:
            return ComplexityProfile(counts=counts, prefix_length=N)
        keep = np.ones(size, dtype=bool)  # compact the sorted codes to the distinct ones
        np.not_equal(srt[1:], srt[:-1], out=keep[1:])
        distinct = srt[keep]
        del srt, keep  # before the codes are rebuilt in window order
        codes = compose(0, J)
        rank = np.empty(size, np.int32 if N < 2**31 else np.int64) if rank is None else rank[:size]
        for lo in range(0, size, _CHUNK):
            rank[lo : lo + _CHUNK] = np.searchsorted(distinct, codes[lo : lo + _CHUNK])
        done, p = done + J, distinct.size
        del codes, distinct  # before the next level's codes are made


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
        squared = np.bincount(masks, weights=counts, minlength=2**ell)  # exact below 2**53
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
        if fresh.any():  # np.append copies even when it adds nothing
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
    srt = _window_codes(w.values, n)
    srt.sort()
    m = size - t + 1
    keep = srt[:m] == srt[t - 1 :]  # entries of a run of at least t ...
    for lo in range(1, m, _CHUNK):  # ... that start it; chunked, with no N-sized temporary
        hi = min(lo + _CHUNK, m)
        keep[lo:hi] &= srt[lo:hi] != srt[lo - 1 : hi - 1]
    return srt[:m][keep].astype(np.int64, copy=False)
