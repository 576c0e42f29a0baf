"""Symbolic sequence constructions.

Rotation-coded (generalized) Sturmian words, seeded Bernoulli prefixes, the
two counterexample codings (a 4-letter pair code and a coin sequence masked
by its own next term), a non-recurrent doubling word with inflating zero
blocks, sparse zero-padded embeddings of a reference word's blocks, and the
heavy-block recoding step used to approximate a sequence by one of low block
diversity.  Both take their block kernels from ``empirics``: the embedding
its distinct blocks from ``_window_ranks``, the recoding its heavy windows.

Every generator is a pure function of (params, seed, N): same inputs give a
byte-identical prefix.  The random source is numpy's PCG64 generator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .empirics import _CHUNK, _CODE_LENGTH_LIMIT, _window_codes, _window_ranks
from .empirics import positive_frequency_blocks
from .seqcore import SignSeq, _as_symbol_array


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


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
                    stacklevel=2,
                )
                break


def sturmian_prefix(params: SturmianParams, N: int) -> SignSeq:
    """Rotation coding eta(n) = 1 iff frac(n*alpha + beta) in [1-alpha, 1).

    The phase is computed directly as (n*alpha + beta) mod 1 in float64;
    the absolute phase error is below 1e-8 for N <= 1e7, far inside the
    separation of the orbit from the cut point for non-pathological alpha.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    n = np.arange(1, N + 1, dtype=np.float64)
    phase = np.mod(n * params.alpha + params.beta, 1.0)
    return SignSeq._wrap((phase >= 1.0 - params.alpha).astype(np.int8))


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

    Deterministic in (alphabet, params, N): uniforms from the seeded
    generator are sliced against cumulative probabilities, drawn in chunks
    that continue one stream, so the bytes equal those of a single draw.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    symbols = _as_symbol_array(alphabet)
    if symbols.size != len(params.probabilities):
        raise ValueError(
            f"alphabet size {symbols.size} != probabilities size {len(params.probabilities)}"
        )
    cuts = np.cumsum(np.asarray(params.probabilities, dtype=np.float64))
    cuts[-1] = 1.0
    rng = _rng(params.seed)
    out = np.empty(N, dtype=np.int8)
    for lo in range(0, N, _CHUNK):
        u = rng.random(min(_CHUNK, N - lo))
        out[lo : lo + u.size] = symbols[np.searchsorted(cuts, u, side="right")]
        del u  # before the next chunk is drawn
    return SignSeq._wrap(out)


def pair_code_prefix(k0: int, seed: int, N: int) -> SignSeq:
    """Code an i.i.d. uniform {0,1,2,3} sequence by the pair at distance k0-1.

    result[n] is -1 when (omega(n), omega(n+k0-1)) is (0,1) or (1,2), +1
    when it is (0,2) or (2,3), else 0.  For k0 = 2 the lag-1 autocorrelation
    converges to 2/4**3 - 1/4**3 = 1/64; in general the correlating lag is
    k0 - 1 (the two coded pairs share one source coordinate there).
    """
    if k0 < 2:
        raise ValueError("k0 must be >= 2")
    if N < 1:
        raise ValueError("N must be >= 1")
    omega = _rng(seed).integers(0, 4, size=N + k0 - 1, dtype=np.int8)
    lut = np.zeros(16, dtype=np.int8)
    lut[0 * 4 + 1] = lut[1 * 4 + 2] = -1
    lut[0 * 4 + 2] = lut[2 * 4 + 3] = 1
    pair = omega[:N] * 4 + omega[k0 - 1 : k0 - 1 + N]
    return SignSeq._wrap(lut[pair])


def masked_coin_prefix(seed: int, N: int) -> SignSeq:
    """X(n) = Y(n) * 1[Y(n+1) = 1] for an i.i.d. uniform +-1 sequence Y.

    All plain (exponent-free) autocorrelations vanish, but the squared-first
    correlation E(X(n)**2 X(n+1)) equals 1/4.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    y = _rng(seed).integers(0, 2, size=N + 1, dtype=np.int8) * 2 - 1
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
    pos, d = 0, 4
    for n, (_, ranks) in enumerate(_window_ranks(w.values, len(w)), start=1):
        if n < d:
            continue
        first = np.sort(np.unique(ranks, return_index=True)[1])
        pad = max(d, ((gap_growth - 1) * d + 1) // 2)
        unit = d + 2 * pad
        if pos + unit * first.size > N:
            break
        for i in first.tolist():
            out[pos + pad : pos + pad + d] = w.values[i : i + d]
            pos += unit
        d *= gap_growth
        if d > len(w):
            break
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


def determinize_step(u: SignSeq, params: DeterminizeParams) -> DeterminizeResult:
    """One recoding pass: classify n-windows of ``u`` as heavy or light by
    empirical frequency, then rewrite each complete big_n block.

    Blocks whose proportion of heavy-window start positions is below
    1 - epsilon become a constant run of the first symbol of ``u``; in the
    others a greedy left-to-right scan keeps disjoint heavy windows and the
    uncovered positions are overwritten by that symbol.  A trailing partial
    block is left unchanged and not counted.  The blocks are the rows of an
    nblocks x big_n matrix, and the scan steps through the start offsets for
    all of them at once.
    """
    n = params.n_block
    big_n = params.big_n
    if big_n > len(u):
        raise ValueError(f"big_n {big_n} exceeds sequence length {len(u)}")
    values = u.values
    nblocks = len(u) // big_n
    processed = nblocks * big_n

    heavy_codes = positive_frequency_blocks(u, n, params.heavy_threshold)
    good = np.zeros((nblocks, big_n), dtype=bool)  # good[m, j]: window m*big_n + j is heavy
    if heavy_codes.size:  # rebuild the window codes the sort reordered
        *_, codes = _window_codes(values, n)
        keys = heavy_codes.astype(codes.dtype, copy=False)
        flat = good.reshape(-1)
        for lo in range(0, min(codes.size, processed), _CHUNK):  # N-sized temporaries otherwise
            chunk = codes[lo : min(lo + _CHUNK, processed)]
            found = keys.take(np.searchsorted(keys, chunk), mode="clip")  # past the end: last key
            flat[lo : lo + chunk.size] = found == chunk
        del codes, chunk, found, _  # each view of the buffer, before the output copy
    good[:, big_n - n + 1 :] = False  # windows that run past their block
    acceptable = np.count_nonzero(good, axis=1) / big_n >= 1.0 - params.epsilon
    good[~acceptable] = False
    next_allowed = np.zeros(nblocks, dtype=np.int64)
    for j in np.flatnonzero(good.any(axis=0)).tolist():
        keep = good[:, j]  # a view: the kept starts overwrite the heavy ones
        keep &= next_allowed <= j
        next_allowed[keep] = j + n
    covered = good.copy()
    for d in range(1, n):
        covered[:, d:] |= good[:, :-d]

    out = values.copy()
    rows = out[:processed].reshape(nblocks, big_n)
    np.putmask(rows, ~covered, values[0])
    changed = int(np.count_nonzero(out[:processed] != values[:processed]))
    return DeterminizeResult(
        sequence=SignSeq._wrap(out),
        distinct_block_count=len(set(map(np.ndarray.tobytes, rows))),
        blocks_processed=nblocks,
        changed_fraction=changed / processed,
        unacceptable_fraction=(nblocks - np.count_nonzero(acceptable)) / nblocks,
        heavy_block_count=heavy_codes.size,
    )
