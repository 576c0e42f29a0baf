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
at length 20, or int64.  ``_code_walk`` alone walks them on a SignSeq or a
.sqz, for ``block_frequencies``, ``positive_frequency_blocks`` and each
``complexity_profile`` level.  ``block_frequencies`` counts 3**k <= min(N,
2**23) codes in a dense int32 table; it sorts more codes once, then only
reads them: the codes d letters shorter are their quotients by 3**d, still
sorted, so a shorter code c spans the entries in [c, c + 1) * 3**d.  The
profile sorts its codes one code range at a time and counts every length
from them, the ranges cut from a histogram of the codes in equal spans of
the code space; past 39 letters a profile code starts with the dense rank of
the window's first letters.  ``positive_frequency_blocks`` sorts one piece
of the codes at a time.  Every pass over an N-sized array, here and in
``symbolicgen``, runs in chunks of ``_CHUNK``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seqcore import Block, _windows

MAX_FREQUENCY_ORDER = 24
_CODE_LENGTH_LIMIT = 39  # 3**39 - 1 < 2**63 <= 3**40 - 1
_CHUNK = 1 << 16  # entries per cache-sized chunk of every pass over an N-sized array
_DENSE_CODES = 2**23  # block_frequencies counts length k in a dense table up to 3**k codes


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

    Prefix doubling, about log2 k passes over the chunk of windows (or the
    ``symbolicgen`` group of blocks) it is given, each into one fresh array:
    the length-1 codes are values + 1, a pass makes code_2m[i] = code_m[i] *
    3**m + code_m[i + m], and each set bit of k below the top then appends
    one letter, 3 * code + values[i + 2m] + 1.  A pass before the last makes
    its codes in the narrowest unsigned dtype that holds them, uint8 up to 5
    letters and uint16 up to 10, so the early passes move a quarter or half
    the bytes.  Letters are added in uint8, where -1 + 1 wraps to 0: int8
    does not cast to an unsigned dtype.
    """
    if not 1 <= k <= values.size:
        raise ValueError(f"window length {k} outside 1..{values.size}")
    letters, dtype = values.view(np.uint8), np.dtype(_code_dtype(3**k))
    codes, m = letters + np.uint8(1), 1
    for bit in reversed(range(k.bit_length() - 1)):
        grow = k >> bit & 1
        size = codes.size - m - grow
        step = dtype if bit == 0 else np.min_scalar_type(3 ** (2 * m + grow) - 1)
        nxt = np.multiply(codes[:size], step.type(3**m), dtype=step)
        nxt += codes[m : m + size]
        if grow:
            nxt *= step.type(3)
            nxt += letters[2 * m : 2 * m + size] + np.uint8(1)
        codes, m = nxt, 2 * m + grow
    return codes.astype(dtype, copy=False)  # at k = 1, the uint8 letters + 1


def _code_walk(source, k: int, stops):
    """The one window-code walk: (start, codes) pairs, the codes of at most
    ``_CHUNK`` consecutive length-k windows, the first at 0-based term start,
    as ``seqcore._windows`` walks a SignSeq or an _SqzFile to the last stop."""
    for end, buf in _windows(source, k, stops):
        first = end - 1 - (buf.size - k)
        for lo in range(0, buf.size - k + 1, _CHUNK):
            yield first + lo, _window_codes(buf[lo : lo + _CHUNK + k - 1], k)


class EmpiricalMeasure:
    """Observed frequencies of all blocks of length <= max_order in a prefix.

    ``freq`` of an unobserved block is 0.  One table is stored, read-only:
    the sorted codes (in ``_code_dtype``) and the int32 counts (int64 from
    2**31 windows) of the length-max_order blocks, and a copy of the last
    max_order - 1 letters, whose length-ell windows start no stored window;
    ``_table`` derives a shorter length.
    """

    __slots__ = ("max_order", "window_count", "_codes", "_counts", "_tail")

    def __init__(self, max_order: int, window_count: int, codes, counts, tail):
        self.max_order, self.window_count = max_order, window_count
        self._codes, self._counts, self._tail = codes, counts, tail.copy()
        codes.flags.writeable = counts.flags.writeable = False

    def denominator(self, length: int) -> int:
        return self.window_count - length + 1

    def _table(self, ell: int):
        """Sorted codes and counts of the length-ell blocks, in the stored dtypes: the runs of
        code // 3**(max_order - ell) that ``_run_starts`` finds, reduced, the last windows merged in."""
        if not 1 <= ell <= self.max_order:
            raise ValueError(f"block length {ell} outside 1..{self.max_order}")
        if ell == self.max_order:
            return self._codes, self._counts
        shift = 3 ** (self.max_order - ell)
        starts = _run_starts(self._codes, shift)
        codes, counts = self._codes[starts], np.add.reduceat(self._counts, starts, dtype=self._counts.dtype)
        codes //= shift
        del starts  # before the last windows are merged in
        last, extra = np.unique(_window_codes(self._tail, ell), return_counts=True)
        last = last.astype(codes.dtype)  # a narrower key would make searchsorted copy the table
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
        keys = np.array([code * shift, (code + 1) * shift], self._codes.dtype)  # <= 3**max_order
        lo, hi = np.searchsorted(self._codes, keys)
        count = self._counts[lo:hi].sum()
        if ell < self.max_order:
            count += np.count_nonzero(_window_codes(self._tail, ell) == code)
        return int(count)

    def freq(self, block) -> float:
        return self.count(block) / self.denominator(len(block))

    def items(self, length: int):
        """(Block, frequency) for every observed block of the length, lazily."""
        codes, counts = self._table(length)
        denom = self.denominator(length)
        return ((code_to_block(code, length), cnt / denom)
                for code, cnt in zip(codes.tolist(), counts.tolist()))


def _run_starts(srt: np.ndarray, shift: int) -> np.ndarray:
    """The intp starts of the runs of srt // shift, srt sorted: 0 and each
    entry whose quotient differs from the one before, a ``_CHUNK`` slice at a time."""
    starts = [np.zeros(1, dtype=np.intp)]
    for lo in range(1, srt.size, _CHUNK):
        q = srt[lo - 1 : lo + _CHUNK] // shift
        starts.append(lo + np.flatnonzero(q[1:] != q[:-1]))
    return np.concatenate(starts)


def block_frequencies(w, k: int) -> EmpiricalMeasure:
    """Overlapping-window frequencies of every block of length <= k in a
    SignSeq or an _SqzFile; length k alone is tallied from a ``_code_walk``,
    in a dense table while 3**k <= min(N, _DENSE_CODES) (np.add.at makes no
    3**k temporary), read off a ``_CHUNK`` slice at a time, else in one code
    buffer, sorted and cut by ``_run_starts``, the run lengths written into
    the counts in place; the last k - 1 letters are decoded from the last
    window's code.

    freq(B) = #{1 <= n <= N-ell+1 : w[n..n+ell-1] = B} / (N-ell+1).
    """
    if not 1 <= k <= MAX_FREQUENCY_ORDER:
        raise ValueError(f"k must be in 1..{MAX_FREQUENCY_ORDER}, got {k}")
    if (N := len(w)) < 10 * k:
        raise ValueError(f"prefix length {N} < 10*k = {10 * k}")
    dtype, count_dtype, size = _code_dtype(3**k), np.int32 if N < 2**31 else np.int64, N - k + 1
    dense = 3**k <= min(N, _DENSE_CODES)
    table = np.zeros(3**k, dtype=count_dtype) if dense else np.empty(size, dtype)  # counts, or the codes
    for start, codes in _code_walk(w, k, (size,)):
        if dense:  # a Python 1 would take ufunc.at's slow casting path into int32
            np.add.at(table, codes, table.dtype.type(1))
        else:
            table[start : start + codes.size] = codes
        last = int(codes[-1])
        del codes  # before the next chunk's codes are made
    tail = (last // 3 ** np.arange(k - 2, -1, -1) % 3 - 1).astype(np.int8)
    if dense:
        codes = np.concatenate([(lo + np.flatnonzero(table[lo : lo + _CHUNK])).astype(dtype)
                                for lo in range(0, table.size, _CHUNK)])
        counts = table[codes]
    else:
        table.sort()
        starts = _run_starts(table, 1)
        codes = table[starts]
        del table  # the window buffer is freed before the counts are made
        counts = np.empty(starts.size, count_dtype)  # the run lengths, made in place
        np.subtract(starts[1:], starts[:-1], out=counts[:-1])
        counts[-1] = size - starts[-1]
    return EmpiricalMeasure(k, N, codes, counts, tail)


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
        """log2(p_n) / n, each log2 the correctly rounded one of the integer
        count (a 40-digit decimal quotient of logarithms): np.log2's SIMD
        kernels differ in the last bit, first at 1621."""
        from decimal import Context  # here, not at import: only reports read slopes

        ctx = Context(prec=40)
        ln2 = ctx.ln(2)
        log2 = [float(ctx.divide(ctx.ln(c), ln2)) for c in self.counts.tolist()]
        return np.array(log2) / np.arange(1, self.n_max + 1, dtype=np.float64)


MAX_COMPLEXITY_ORDER = 512
_BINS = 3**8  # a level's histogram cuts its code space into at most this many equal spans


def _range_budget(total: int, itemsize: int) -> int:
    """The codes a range of ``complexity_profile`` is planned for: of the
    ``total`` codes a level's histogram counts, a fifth at 4 bytes a code
    and a half at 8, and at least 2**16.  A range costs a walk, and a walk of
    8-byte codes about twice one of 4-byte codes: a fifth keeps the ``entropy
    --n-max 20`` child below the N-byte output of ``determinize`` at 10^7,
    and a half holds n_max 39 to the time of one buffer (a third took about
    10 % more)."""
    return max(1 << 16, -(-total // (5 if itemsize == 4 else 2)))


def complexity_profile(w, n_max: int) -> ComplexityProfile:
    """Exact distinct-window counts for n = 1..n_max of a SignSeq or an
    _SqzFile, in levels: a level codes a window of length done + J as the
    dense rank (one of p) of its first done letters * 3**J + the ``_code_walk``
    code of the rest, J the most letters (39 at done = 0) with p*3**J <= 2**63.

    A first walk of the level's windows counts their codes in at most
    ``_BINS`` equal spans of [0, p * 3**J); consecutive spans are cut into
    code ranges of about ``_range_budget`` codes, a heavier span alone.  Each
    range then takes a walk that keeps its codes in one reused buffer, sorts
    them and counts every length done + j, j <= J, by their quotients by
    3**(J - j), the last code of the range before carried across the seam.
    When a span is one code, its nonzero spans already are the sorted
    distinct codes: a range is filled from them, with no walk, and the
    ranges are planned on the distinct codes.  The last J - j windows of
    length done + j start no level window: their codes, from the letters in
    the first walk's last code, are looked up in each range.  A last walk
    ranks the windows among the distinct codes for the next level; once
    every window is distinct, p_n = N - n + 1."""
    if not 1 <= n_max <= MAX_COMPLEXITY_ORDER:
        raise ValueError(f"n_max must be in 1..{MAX_COMPLEXITY_ORDER}, got {n_max}")
    N = len(w)
    if n_max > N:
        raise ValueError(f"n_max {n_max} exceeds prefix length {N}")
    def compose(codes, start, j):  # last-j-letter codes -> those of the length done + j windows from start on
        codes = codes.astype(dtype, copy=False)
        if done:
            codes += rank[start : start + codes.size].astype(dtype) * dtype(3**j)
        return codes
    def walk():  # (start, codes) of the level's windows: the J-letter windows from letter done on
        for start, codes in _code_walk(w, J, (N - J + 1,)):
            if (cut := max(done - start, 0)) < codes.size:
                yield start + cut - done, compose(codes[cut:], start + cut - done, J)
    def tally(srt):  # runs of srt // 3**(J - j) add to p_(done + j)
        for lo in range(0, srt.size - 1, _CHUNK):  # each chunk overlaps the last by one entry
            chunk = srt[lo : lo + _CHUNK + 1].copy()
            for j in range(J, 0, -1):
                new = chunk[1:] != chunk[:-1]
                changes = np.count_nonzero(new)
                counts[done + j - 1] += changes
                if 32 * changes < new.size:  # few runs: one entry of each has the same changes
                    chunk = np.r_[chunk[:1], chunk[1:][new]]
                chunk //= 3
                chunk = chunk.astype(_code_dtype(p * 3 ** (j - 1)), copy=False)  # narrower once they fit
    def fill(lo, hi):  # the codes in [lo, hi) into buf[1:n], sorted; returns n
        if span == 1:  # the nonzero spans are the sorted distinct codes
            kept = lo + np.flatnonzero(hist[lo:hi])
            buf[1 : 1 + kept.size] = kept
            return 1 + kept.size
        n = 1
        for _, codes in walk():  # each chunk's own codes, shifted in place: no chunk-sized temporary
            codes -= dtype(lo)
            kept = np.compress(codes.view(f"u{codes.itemsize}") <= hi - lo - 1, codes) + dtype(lo)
            buf[n : n + kept.size] = kept
            n += kept.size
            del codes, kept  # before the next chunk's codes are made
        buf[1:n].sort()
        return n
    counts = N + 1 - np.arange(1, n_max + 1, dtype=np.int64)  # p_n once all are distinct
    done, p, rank = 0, 1, None
    while True:
        J = min(n_max - done, max(j for j in range(1, 40) if p * 3**j <= 2**63))
        top, size = p * 3**J, N - done - J + 1
        dtype, span = _code_dtype(top), -(-top // _BINS)
        hist = np.zeros(-(-top // span), np.int64)
        for _, codes in walk():
            hist += np.bincount(codes // span, minlength=hist.size)
        tail = (int(codes[-1]) // 3 ** np.arange(J - 2, -1, -1) % 3 - 1).astype(np.int8)  # last J - 1 letters
        keys = (np.unique(compose(_window_codes(tail, j), size, j)) for j in range(1, J))  # by length
        last = [(key, np.zeros(key.size, bool)) for key in keys]  # the last windows, and which are seen
        planned = np.minimum(hist, 1) if span == 1 else hist
        before = np.cumsum(planned) - planned
        budget = _range_budget(int(planned.sum()), np.dtype(dtype).itemsize)
        first = np.flatnonzero(np.diff(before // budget, prepend=-1))
        weights = np.add.reduceat(planned, first).tolist()
        bounds = [b * span for b in first.tolist()] + [top]
        buf, carried, runs = np.empty(1 + max(weights), dtype), False, []
        counts[done : done + J] = 1
        for lo, hi, weight in zip(bounds, bounds[1:], weights):
            if not weight:
                continue
            n = fill(lo, hi)
            for j, (key, seen) in enumerate(last, 1):  # marks the last windows the range holds
                found = np.searchsorted(buf[1:n], [key * 3 ** (J - j), (key + 1) * 3 ** (J - j)])
                seen |= found[0] < found[1]
            tally(buf[0 if carried else 1 : n])
            if done + J < n_max:  # the distinct codes, or the range when every code is, as then
                # the profile may return below with no copy (copies: 12.53 B/symbol at n_max 60)
                new = np.r_[True, buf[2:n] != buf[1 : n - 1]]
                runs.append((lo, hi) if new.all() else buf[1:n][new])
            buf[0], carried = buf[n - 1], True
        for i, (_, seen) in enumerate(last, done):
            counts[i] += np.count_nonzero(~seen)
        if done + J == n_max or counts[done + J - 1] == size:
            return ComplexityProfile(counts=counts, prefix_length=N)
        distinct = np.concatenate(
            [run if isinstance(run, np.ndarray) else buf[1 : fill(*run)].copy() for run in runs])
        del buf, runs, hist  # before the windows are ranked
        rank = np.empty(size, np.int32 if N < 2**31 else np.int64) if rank is None else rank[:size]
        for start, codes in walk():  # each rank overwrites the one its code was read from
            rank[start : start + codes.size] = np.searchsorted(distinct, codes)
        done, p = done + J, distinct.size
        del distinct  # before the next level's codes are made


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
    z, k: int, tol: float, audit_factor: float = AUDIT_FACTOR
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
        masks = np.empty(codes.size, np.uint16)  # 2**16 masks at k = 16
        squared, patterns = np.zeros(2**ell), np.zeros(2**ell, np.int64)
        for lo in range(0, codes.size, _CHUNK):
            c, n = codes[lo : lo + _CHUNK], counts[lo : lo + _CHUNK]
            m = masks[lo : lo + _CHUNK]
            m[:] = sum((c // 3**i % 3 != 1) << (ell - 1 - i) for i in range(ell))
            squared += np.bincount(m, weights=n, minlength=2**ell)  # exact below 2**53
            patterns += np.bincount(m, minlength=2**ell)
        support = np.bitwise_count(np.arange(2**ell)).astype(np.int64)
        freq2 = squared / denom
        audit = (squared > 0) & ~(freq2 <= audit_factor * tol)
        audited += int(np.count_nonzero(audit))
        target = freq2 / 2.0**support
        unseen = audit & (patterns < 1 << support)
        def deviations():  # (masks, codes, deviations) a slice at a time
            for lo in range(0, codes.size, _CHUNK):
                m = masks[lo : lo + _CHUNK]
                # 0 off the audited squares: it never beats 0.0 or exceeds tol
                yield m, codes[lo : lo + _CHUNK], np.abs(counts[lo : lo + _CHUNK] / denom - target[m]) * audit[m]
        top = max(max(d.max() for *_, d in deviations()), target[unseen].max(initial=0.0))
        new_max = top > max_violation
        more_masks = np.flatnonzero(unseen & ((target > tol) | new_max & (target == top)))
        more = np.zeros(more_masks.size, dtype=np.int64)
        for i in range(ell):
            reps = 1 + (more_masks >> i & 1)
            pairs = np.flatnonzero(np.repeat(reps == 2, reps))
            more_masks, more = np.repeat(more_masks, reps), np.repeat(3 * more + 1, reps)
            more[pairs] += np.tile([-1, 1], pairs.size // 2)  # letters -1 and 1
        more = more.astype(codes.dtype)  # < 3**ell: an int64 key would make searchsorted copy codes
        fresh = codes.take(np.searchsorted(codes, more), mode="clip") != more  # codes are sorted
        picks = [(more_masks[fresh], more[fresh], target[more_masks[fresh]])]
        for m, c, d in deviations():
            pick = np.flatnonzero((d > tol) | new_max & (d == top))
            picks.append((m[pick], c[pick], d[pick]))
        m, c, d = (np.concatenate(x) for x in zip(*picks))
        order = np.lexsort((c, m))
        c, d = c[order], d[order]
        if new_max:
            max_violation = float(top)
            witness = code_to_block(int(c[np.argmax(d == top)]), ell)
        keep = d > tol
        violations += [(code_to_block(code, ell), dev)
                       for code, dev in zip(c[keep].tolist(), d[keep].tolist())]
        del codes, counts, masks  # before the next length's table is made
    return SignExtensionReport(
        passed=max_violation <= tol,
        max_violation=max_violation,
        witness=witness,
        violations=tuple(violations),
        k=k,
        tol=tol,
        audited_blocks=audited,
    )


def positive_frequency_blocks(w, n: int, threshold: float) -> np.ndarray:
    """Sorted int64 codes (``code_to_block`` decodes one) of the length-n
    blocks whose frequency exceeds ``threshold`` in a SignSeq or an _SqzFile:
    a finite-scale stand-in for the positive-upper-frequency subshift.

    With t the least count whose frequency t / size exceeds threshold, two
    walks of the window codes find them.  The first cuts the windows into
    near-equal pieces of at most max(_CHUNK, ceil(2 size / t)) and sorts each
    piece's codes in place: a code is a candidate when its run in a piece of
    m windows reaches ceil(t m / size), as a code below that in every piece
    has fewer than t windows in all.  The second counts the candidates,
    unless one piece holds every window.  Memory: a piece, O(size / t), and
    the candidates.
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
    pieces = -(-size // max(_CHUNK, -(-2 * size // t)))  # of near-equal size: none is small
    stops = [size * (i + 1) // pieces for i in range(pieces)]
    srt, found, lo, j = np.empty(-(-size // pieces), _code_dtype(3**n)), [], 0, 0
    for start, codes in _code_walk(w, n, stops):
        srt[start - lo : start - lo + codes.size] = codes
        if start + codes.size < stops[j]:
            continue
        part, lo, j = srt[: stops[j] - lo], stops[j], j + 1
        part.sort()
        r = -(-t * part.size // size)
        m = part.size - r + 1
        keep = part[:m] == part[r - 1 :]  # entries of a run of at least r ...
        for a in range(1, m, _CHUNK):  # ... that start it; chunked, with no piece-sized temporary
            b = min(a + _CHUNK, m)
            keep[a:b] &= part[a:b] != part[a - 1 : b - 1]
        found.append(part[:m][keep])
    del srt  # before the candidates are counted
    candidates = np.concatenate(found)  # sorted and distinct in each piece
    if pieces > 1 and candidates.size:  # one piece has r = t: its candidates are the blocks
        candidates.sort()  # a code from several pieces counts at its first copy, the rest 0
        counts = np.zeros(candidates.size, dtype=np.int64)
        for _, codes in _code_walk(w, n, (size,)):
            i = np.searchsorted(candidates, codes)
            hit = candidates.take(i, mode="clip") == codes  # a clipped index past the end: no match
            counts += np.bincount(i[hit], minlength=candidates.size)
        candidates = candidates[counts >= t]
    return candidates.astype(np.int64)
