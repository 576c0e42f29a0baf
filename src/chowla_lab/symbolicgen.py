"""Symbolic sequence constructions.

Rotation-coded (generalized) Sturmian words, seeded Bernoulli prefixes, the
two counterexample codings (a 4-letter pair code and a coin sequence masked
by its own next term), a non-recurrent doubling word with inflating zero
blocks, sparse zero-padded embeddings of a reference word's blocks, and the
heavy-block recoding step used to approximate a sequence by one of low block
diversity.  The recoding builds on ``empirics``' window codes and takes its
heavy windows from ``positive_frequency_blocks``; the embedding reads no
code format.  Its level-d window at i is the tuple of the last level's labels
at i, i + d/g, ... (level 4: the letters'), composed as key * p + label and
dense-ranked at the end of the level, and before a key could overflow.

Every generator is a pure function of (params, seed, N): same inputs give a
byte-identical prefix.  The random source is ``np.random.default_rng`` (PCG64).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .empirics import _CHUNK, _CODE_LENGTH_LIMIT, _window_codes, positive_frequency_blocks
from .seqcore import SignSeq, _as_symbol_array, _fill, _windows


@dataclass(frozen=True)
class SturmianParams:
    """Rotation angle/1-density ``alpha`` in [0,1] and phase ``beta`` in [0,1).

    Rational alpha is allowed (it yields a periodic, generalized Sturmian
    word); a warning is emitted because exact complexity p_n = n+1 requires
    irrational alpha.
    """

    alpha: float
    beta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0,1], got {self.alpha}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0,1), got {self.beta}")
        for q in range(1, 1001):
            if abs(self.alpha - round(self.alpha * q) / q) <= 1e-12:
                warnings.warn(
                    f"alpha={self.alpha} is within 1e-12 of a rational with "
                    f"denominator {q} <= 1000; complexity n+1 will not hold",
                    stacklevel=3,  # past the generated __init__, to its caller
                )
                break


def sturmian_prefix(params: SturmianParams, N: int) -> SignSeq:
    """Rotation coding eta(n) = 1 iff frac(n*alpha + beta) in [1-alpha, 1).

    The phase (n*alpha + beta) mod 1 is computed in float64, a chunk of n at
    a time; its absolute error is below 1e-8 for N <= 1e7, far inside the
    separation of the orbit from the cut point for non-pathological alpha.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    out = np.empty(N, dtype=np.int8)
    for lo in range(0, N, _CHUNK):
        n = np.arange(lo + 1, min(lo + _CHUNK, N) + 1, dtype=np.float64)
        out[lo : lo + n.size] = np.mod(n * params.alpha + params.beta, 1.0) >= 1.0 - params.alpha
    return SignSeq._wrap(out)


@dataclass(frozen=True)
class BernoulliParams:
    """I.i.d. draw parameters: one probability per alphabet symbol, a seed."""

    probabilities: tuple[float, ...]
    seed: int

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probabilities)
        object.__setattr__(self, "probabilities", probs)
        if not all(0.0 <= p <= 1.0 for p in probs):
            raise ValueError(f"probabilities must lie in [0,1]: {probs}")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1 within 1e-12: {probs}")


def bernoulli_prefix(alphabet, params: BernoulliParams, N: int) -> SignSeq:
    """N i.i.d. draws over ``alphabet`` with the given probabilities.

    Deterministic in (alphabet, params, N): each uniform from the seeded
    generator takes the symbol after the last cumulative probability it
    reaches (as ``searchsorted(side="right")``), drawn in chunks that
    continue one stream, so the bytes equal those of a single draw.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    symbols = _as_symbol_array(alphabet)
    if symbols.size != len(params.probabilities):
        raise ValueError(
            f"alphabet size {symbols.size} != probabilities size {len(params.probabilities)}"
        )
    cuts = np.cumsum(np.asarray(params.probabilities, dtype=np.float64))[:-1].tolist()
    rng = np.random.default_rng(params.seed)
    out = np.full(N, symbols[0], dtype=np.int8)
    for lo in range(0, N, _CHUNK):
        u = rng.random(min(_CHUNK, N - lo))
        for cut, symbol in zip(cuts, symbols[1:].tolist()):  # ascending: the last cut <= u wins
            np.putmask(out[lo : lo + u.size], u >= cut, symbol)
        del u  # before the next chunk is drawn
    return SignSeq._wrap(out)


def pair_code_prefix(k0: int, seed: int, N: int) -> SignSeq:
    """Code an i.i.d. uniform {0,1,2,3} sequence by the pair at distance k0-1.

    result[n] is -1 when (omega(n), omega(n+k0-1)) is (0,1) or (1,2), +1
    when it is (0,2) or (2,3), else 0.  For k0 = 2 the lag-1 autocorrelation
    converges to 2/4**3 - 1/4**3 = 1/64; in general the correlating lag is
    k0 - 1 (the two coded pairs share one source coordinate there).
    """
    return _fill(N, _pair_code_chunks(k0, seed, N))


def _pair_code_chunks(k0: int, seed: int, N: int):
    """The int8 chunks of ``pair_code_prefix``, as an iterator; the
    arguments are checked at the call.  omega is drawn in steps of
    4 * _CHUNK, or of k0 - 1 rounded up to a multiple of 4 when that is
    more, and its last k0 - 1 letters carry over: a step holds the carry,
    so a letter is copied a bounded number of times, and a k0 too large for
    memory fails at the first draw.  An int8 draw takes the four bytes of a
    32-bit word in turn and one byte per value (4 is a power of two, so none
    is rejected), so draws whose sizes are multiples of 4 continue one
    stream: the chunks are the bytes of a single draw."""
    if k0 < 2:
        raise ValueError("k0 must be >= 2")
    if N < 1:
        raise ValueError("N must be >= 1")
    lut = np.zeros(16, dtype=np.int8)
    lut[0 * 4 + 1] = lut[1 * 4 + 2] = -1
    lut[0 * 4 + 2] = lut[2 * 4 + 3] = 1
    rng, total = np.random.default_rng(seed), N + k0 - 1
    step = max(4 * _CHUNK, -(-(k0 - 1) // 4) * 4)

    def chunks():
        omega = np.empty(0, dtype=np.int8)
        for lo in range(0, total, step):
            draw = rng.integers(0, 4, size=min(step, total - lo), dtype=np.int8)
            omega = np.concatenate((omega[omega.size - k0 + 1 :], draw))
            if omega.size >= k0:
                yield lut[omega[: 1 - k0] * 4 + omega[k0 - 1 :]]

    return chunks()


def masked_coin_prefix(seed: int, N: int) -> SignSeq:
    """X(n) = Y(n) * 1[Y(n+1) = 1] for an i.i.d. uniform +-1 sequence Y.

    All plain (exponent-free) autocorrelations vanish, but the squared-first
    correlation E(X(n)**2 X(n+1)) equals 1/4.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    y = np.random.default_rng(seed).integers(0, 2, size=N + 1, dtype=np.int8) * 2 - 1
    return SignSeq._wrap(y[:N] * (y[1:] == 1))


def doubling_word_prefix(N: int) -> SignSeq:
    """Non-recurrent sparse word: start from 1 followed by ten zeros, then
    repeatedly append a copy of the word so far plus 10**s zeros, until the
    requested length; finally flip the leading 1 to -1.

    The zero blocks inflate faster than the word doubles, so the support
    density tends to 0, while the squared word keeps recurring copies of
    every early block.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    word = np.zeros(11, dtype=np.int8)
    word[0] = 1
    s = 1
    while word.size < N:
        word = np.concatenate([word, word, np.zeros(10**s, dtype=np.int8)])
        s += 1
    word = word[:N].copy()
    word[0] = -1
    return SignSeq._wrap(word)


def _dense_rank(key: np.ndarray) -> np.ndarray:
    """Overwrite key with the dense ranks of its entries; return the least
    index of each distinct value, ascending (a stable sort keeps it first)."""
    order = np.argsort(key, kind="stable")
    srt = key[order]
    new = np.r_[True, srt[1:] != srt[:-1]]
    key[order] = np.cumsum(new, dtype=srt.dtype, out=srt) - 1
    del srt  # before the first indices are copied out
    return np.sort(order[new])


def sparse_embed(w: SignSeq, N: int, gap_growth: int) -> SignSeq:
    """Embed every block of ``w`` of lengths 4, 4g, 4g**2, ... into a mostly
    zero prefix of length N (g = gap_growth).

    Each distinct block of the current length, in order of first occurrence
    in ``w``, is written once, padded on both sides with
    max(d, ceil((g-1)d/2)) zeros, so each placement occupies at least g*d
    positions with at most d nonzero: the support density of the result is
    at most 1/g.  A length level is embedded only if all its placements fit.
    """
    if gap_growth < 2:
        raise ValueError("gap_growth must be >= 2")
    if len(w) < 4:
        raise ValueError(f"reference shorter than the first block length 4: {len(w)}")
    if N < 1:
        raise ValueError("N must be >= 1")
    out = np.zeros(N, dtype=np.int8)
    labels, p, part = np.add(w.values, 1, dtype=np.int32), 3, 1  # the letters' labels
    pos, d = 0, 4
    while d <= len(w):
        parts, size = d // part, len(w) - d + 1
        wide = parts * (p - 1).bit_length() > 30  # p**parts may reach 2**31
        key, bound = labels[:size].astype(np.int64 if wide else np.int32), p
        for j in range(1, parts):  # each key is below bound
            if bound * p > 2**63:  # the next key could overflow: rank this one
                bound = _dense_rank(key).size
            key *= p
            key += labels[j * part : j * part + size]
            bound *= p
        del labels  # before the level is ranked
        first = _dense_rank(key)
        labels, p, part = key, first.size, d
        pad = max(d, ((gap_growth - 1) * d + 1) // 2)
        unit = d + 2 * pad
        if pos + unit * first.size > N:
            break
        for i in first.tolist():
            out[pos + pad : pos + pad + d] = w.values[i : i + d]
            pos += unit
        d *= gap_growth
    return SignSeq._wrap(out)


@dataclass(frozen=True)
class DeterminizeParams:
    """Heavy-block recoding parameters.

    ``n_block`` is the inner window length n, ``big_n`` the outer block
    length (a multiple of n_block), and a window is heavy exactly when its
    empirical frequency exceeds 2**(-epsilon*n_block).
    """

    epsilon: float
    n_block: int
    big_n: int

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0,1), got {self.epsilon}")
        if not 1 <= self.n_block <= _CODE_LENGTH_LIMIT:
            raise ValueError(f"n_block must be in 1..{_CODE_LENGTH_LIMIT} (a longer window "
                             f"overflows 64-bit base-3 packing), got {self.n_block}")
        if self.big_n < self.n_block:
            raise ValueError(f"big_n {self.big_n} < n_block {self.n_block}")
        if self.big_n % self.n_block != 0:
            raise ValueError(f"big_n {self.big_n} not divisible by n_block {self.n_block}")
        if self.epsilon * self.big_n >= 1024:  # 2**(epsilon*big_n) overflows float64
            raise ValueError(f"epsilon*big_n must be < 1024, got {self.epsilon * self.big_n}")

    @property
    def heavy_threshold(self) -> float:
        return 2.0 ** (-self.epsilon * self.n_block)


@dataclass(frozen=True)
class DeterminizeResult:
    """Recoded sequence plus the measurements the recoding bounds refer to."""

    sequence: SignSeq
    distinct_block_count: int
    blocks_processed: int
    changed_fraction: float
    unacceptable_fraction: float
    heavy_block_count: int

    def distinct_block_bound(self, params: DeterminizeParams) -> float:
        return 2.0 ** (params.epsilon * params.big_n) + 1.0


def determinize_step(u, params: DeterminizeParams) -> DeterminizeResult:
    """One recoding pass over a SignSeq or an _SqzFile: classify n-windows
    of ``u`` as heavy or light by empirical frequency, then rewrite each
    complete big_n block.

    Blocks whose proportion of heavy-window start positions is below
    1 - epsilon become a constant run of the first symbol of ``u``; in the
    others a greedy left-to-right scan keeps disjoint heavy windows and the
    uncovered positions are overwritten by that symbol.  A trailing partial
    block is left unchanged and not counted.  A window that runs past its
    block is never heavy, so a block is rewritten from its own letters: the
    walk copies ``u`` into the output and rewrites each group of
    max(1, _CHUNK // big_n) blocks once it is complete, as the rows of a
    matrix that the scan steps through a start offset at a time.
    """
    n = params.n_block
    big_n = params.big_n
    N = len(u)
    if big_n > N:
        raise ValueError(f"big_n {big_n} exceeds sequence length {N}")
    nblocks = N // big_n
    processed = nblocks * big_n

    heavy_codes = positive_frequency_blocks(u, n, params.heavy_threshold)
    out, lo, step = np.empty(N, dtype=np.int8), 0, max(1, _CHUNK // big_n) * big_n
    distinct, accepted, changed = set(), 0, 0
    for end, buf in _windows(u, 1, sorted({*range(step, processed, step), processed, N})):
        out[end - buf.size : end] = buf
        if end != min(lo + step, processed):
            continue
        rows = out[lo:end].reshape(-1, big_n)
        lo = end
        good = np.zeros(rows.shape, dtype=bool)  # good[m, j]: window j of row m is heavy
        if heavy_codes.size:
            codes = _window_codes(rows.reshape(-1), n)
            found = heavy_codes.take(np.searchsorted(heavy_codes, codes), mode="clip")
            good.reshape(-1)[: codes.size] = found == codes  # a clipped index past the end: no match
        good[:, big_n - n + 1 :] = False  # windows that run past their block
        acceptable = np.count_nonzero(good, axis=1) / big_n >= 1.0 - params.epsilon
        good[~acceptable] = False
        accepted += int(np.count_nonzero(acceptable))
        next_allowed = np.zeros(rows.shape[0], dtype=np.int64)
        for j in np.flatnonzero(good.any(axis=0)).tolist():
            keep = good[:, j]  # a view: the kept starts overwrite the heavy ones
            keep &= next_allowed <= j
            next_allowed[keep] = j + n
        covered = good.copy()
        for d in range(1, n):
            covered[:, d:] |= good[:, :-d]
        uncovered = np.logical_not(covered, out=covered)
        changed += int(np.count_nonzero(uncovered & (rows != out[0])))
        np.putmask(rows, uncovered, out[0])  # out[0] is never changed
        distinct.update(map(np.ndarray.tobytes, rows))
    return DeterminizeResult(
        sequence=SignSeq._wrap(out),
        distinct_block_count=len(distinct),
        blocks_processed=nblocks,
        changed_fraction=changed / processed,
        unacceptable_fraction=(nblocks - accepted) / nblocks,
        heavy_block_count=heavy_codes.size,
    )
