"""Symbolic constructions: distributional targets use fixed seeds, so the
asserted tolerances are deterministic once verified."""

import math
import os
import re
import tempfile
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chowla_lab import empirics, seqcore, symbolicgen
from chowla_lab.correlations import CorrelationSpec, chowla_sum
from chowla_lab.empirics import code_to_block, complexity_profile
from chowla_lab.seqcore import SignSeq, write_sqz
from chowla_lab.symbolicgen import (
    BernoulliParams,
    DeterminizeParams,
    SturmianParams,
    bernoulli_prefix,
    determinize_step,
    doubling_word_prefix,
    masked_coin_prefix,
    pair_code_prefix,
    sparse_embed,
    sturmian_prefix,
)

from traced_memory import traced_peak

GOLDEN_DENSITY = (3 - math.sqrt(5)) / 2  # 1/phi^2


def golden_params():
    return SturmianParams(alpha=GOLDEN_DENSITY)


class TestSturmian:
    def test_degenerate_slope(self):
        with pytest.warns(UserWarning):
            params = SturmianParams(alpha=0.0, beta=0.3)
        eta = sturmian_prefix(params, 100)
        assert not eta.values.any()

    def test_complexity_exact(self):
        eta = sturmian_prefix(golden_params(), 50_000)
        profile = complexity_profile(eta, 50)
        assert profile.counts.tolist() == list(range(2, 52))

    def test_block_one_counts(self):
        eta = sturmian_prefix(golden_params(), 50_000)
        ones = np.concatenate([[0], np.cumsum(eta.values, dtype=np.int64)])
        counts = ones[50:] - ones[:-50]
        assert counts.min() > 50 * GOLDEN_DENSITY - 3
        assert counts.max() < 50 * GOLDEN_DENSITY + 3

    def test_running_density_band(self):
        eta = sturmian_prefix(golden_params(), 20_000)
        running = np.cumsum(eta.values, dtype=np.float64)
        n = np.arange(1, 20_001)
        assert np.all(np.abs(running / n - GOLDEN_DENSITY) <= 3.0 / n)

    def test_rational_alpha_warns(self):
        with pytest.warns(UserWarning, match="denominator"):
            SturmianParams(alpha=0.5, beta=0.25)

    def test_warning_names_the_caller(self):
        # not the dataclass-generated __init__, which has no file ("<string>")
        with pytest.warns(UserWarning, match="denominator") as record:
            SturmianParams(alpha=0.5)
        assert [w.filename for w in record] == [__file__]

    # one short of and one past a chunk seam, as in TestBernoulli
    @pytest.mark.parametrize("N", [1, 16 * symbolicgen._CHUNK - 1, 16 * symbolicgen._CHUNK + 1])
    def test_chunks_match_whole_array_formula(self, N):
        params = SturmianParams(alpha=GOLDEN_DENSITY, beta=0.3)
        n = np.arange(1, N + 1, dtype=np.float64)
        want = (np.mod(n * params.alpha + params.beta, 1.0) >= 1.0 - params.alpha).astype(np.int8)
        assert sturmian_prefix(params, N).values.tobytes() == want.tobytes()

    def test_traced_peak(self):
        # the int8 output and one chunk of float64 phases
        N = 2**22
        assert traced_peak(sturmian_prefix, golden_params(), N) < 2 * N

    def test_validation(self):
        with pytest.raises(ValueError):
            SturmianParams(alpha=1.5)
        with pytest.raises(ValueError):
            SturmianParams(alpha=0.3, beta=1.0)


class TestBernoulli:
    def test_reproducible(self):
        p = BernoulliParams((0.25, 0.5, 0.25), seed=99)
        a = bernoulli_prefix((-1, 0, 1), p, 10_000)
        b = bernoulli_prefix((-1, 0, 1), p, 10_000)
        assert a == b

    def test_degenerate(self):
        z = bernoulli_prefix((-1, 1), BernoulliParams((1.0, 0.0), seed=1), 500)
        assert np.all(z.values == -1)

    def test_fair_coin_mean(self):
        z = bernoulli_prefix((-1, 1), BernoulliParams((0.5, 0.5), seed=2), 10**6)
        assert abs(z.values.mean()) < 0.005

    def test_three_letter_square_density(self):
        z = bernoulli_prefix((-1, 0, 1), BernoulliParams((0.25, 0.5, 0.25), seed=3), 10**6)
        assert abs((z.values != 0).mean() - 0.5) < 0.005

    @pytest.mark.parametrize("N", [1, 2**20 - 1, 2**20, 2**20 + 1, 3 * 2**20 + 7])
    def test_chunks_continue_one_stream(self, N):
        # the one-shot draw: a dropped or repeated uniform at a chunk edge shifts the rest
        symbols, probs = np.array([-1, 0, 1], dtype=np.int8), (0.25, 0.5, 0.25)
        cuts = np.cumsum(probs)
        cuts[-1] = 1.0
        u = np.random.Generator(np.random.PCG64(17)).random(N)
        want = symbols[np.searchsorted(cuts, u, side="right")]
        got = bernoulli_prefix((-1, 0, 1), BernoulliParams(probs, seed=17), N)
        assert np.array_equal(got.values, want)

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    @pytest.mark.parametrize("alphabet,probs", [
        ((-1, 0, 1), (0.25, 0.5, 0.25)),
        ((-1, 0, 1), (0.5, 0.0, 0.5)),
        ((1, -1), (0.3, 0.7)),
    ], ids=["three-letter", "zero-probability", "two-letter-descending"])
    def test_chunks_are_one_draw(self, monkeypatch, chunk, alphabet, probs):
        # chunks of _CHUNK draws, the last one shorter, that join to the symbols
        # of one draw; a zero probability makes two equal cuts, and (1, -1)
        # steps down from the first symbol
        monkeypatch.setattr(symbolicgen, "_CHUNK", chunk)
        N = 3 * chunk + 2
        cuts = np.cumsum(probs)
        cuts[-1] = 1.0
        u = np.random.default_rng(5).random(N)
        want = np.array(alphabet, dtype=np.int8)[np.searchsorted(cuts, u, side="right")]
        chunks = list(symbolicgen._bernoulli_chunks(alphabet, BernoulliParams(probs, seed=5), N))
        assert [c.size for c in chunks] == [min(chunk, N - lo) for lo in range(0, N, chunk)]
        assert all(c.dtype == np.int8 for c in chunks)
        assert np.array_equal(np.concatenate(chunks), want)

    @pytest.mark.parametrize("alphabet,probs", [
        ((-1, 0, 1), (0.25, 0.5, 0.25)),
        ((-1, 0, 1), (0.5, 0.0, 0.5)),
        ((-1, 0, 1), (0.0, 0.0, 1.0)),
        ((-1, 0, 1), (1.0, 0.0, 0.0)),
        ((-1, 1), (0.3, 0.7)),
    ])
    # one short of and one past a chunk seam (2**20 = 16 chunks)
    @pytest.mark.parametrize("N", [1, 16 * symbolicgen._CHUNK - 1, 16 * symbolicgen._CHUNK + 1])
    def test_matches_searchsorted_draw(self, alphabet, probs, N):
        # zero-probability symbols give equal cuts, which side="right" steps past
        cuts = np.cumsum(probs)
        cuts[-1] = 1.0
        u = np.random.default_rng(23).random(N)
        want = np.array(alphabet, dtype=np.int8)[np.searchsorted(cuts, u, side="right")]
        got = bernoulli_prefix(alphabet, BernoulliParams(probs, seed=23), N)
        assert np.array_equal(got.values, want)

    def test_validation(self):
        with pytest.raises(ValueError, match="sum"):
            BernoulliParams((0.5, 0.6), seed=0)
        with pytest.raises(ValueError, match="out of alphabet"):
            bernoulli_prefix((-1, 2), BernoulliParams((1.0, 0.0), seed=0), 10)
        with pytest.raises(ValueError, match="alphabet size"):
            bernoulli_prefix((-1, 1), BernoulliParams((0.25, 0.5, 0.25), seed=0), 10)


class TestPairCode:
    def test_values_and_mean(self):
        z = pair_code_prefix(2, seed=42, N=10**6)
        assert set(np.unique(z.values)) <= {-1, 0, 1}
        assert abs(z.values.mean()) < 0.005

    def test_lag_one_correlation(self):
        z = pair_code_prefix(2, seed=42, N=10**6 + 1)
        value = chowla_sum(z, CorrelationSpec((1,), (1, 1)), 10**6).final
        assert abs(value - 1 / 64) < 0.005

    def test_k0_five_lag_structure(self):
        # the two coded windows share a coordinate at lag k0-1, so that lag
        # correlates (~1/64) and the others vanish
        z = pair_code_prefix(5, seed=42, N=10**6 + 5)
        values = {
            a: chowla_sum(z, CorrelationSpec((a,), (1, 1)), 10**6).final
            for a in (1, 2, 3, 4, 5)
        }
        for a in (1, 2, 3, 5):
            assert abs(values[a]) < 0.005, (a, values[a])
        assert abs(values[4] - 1 / 64) < 0.005

    def test_rejects_small_k0(self):
        with pytest.raises(ValueError):
            pair_code_prefix(1, seed=0, N=10)

    @pytest.mark.parametrize("chunk", [1, 7, symbolicgen._CHUNK])
    @pytest.mark.parametrize("k0", [2, 5, 40])
    def test_chunks_are_one_draw(self, monkeypatch, chunk, k0):
        # omega is drawn 4 * _CHUNK at a time, or 40 at a time for k0 = 40
        # at chunks 1 and 7; the oracle draws it at once and codes it whole
        monkeypatch.setattr(symbolicgen, "_CHUNK", chunk)
        lut = np.zeros(16, dtype=np.int8)
        lut[[1, 6]], lut[[2, 11]] = -1, 1
        for N in (1, 4 * chunk, 4 * chunk + 1, 4 * chunk * 3 + 5):
            omega = np.random.default_rng(3).integers(0, 4, size=N + k0 - 1, dtype=np.int8)
            want = lut[omega[:N] * 4 + omega[k0 - 1 : k0 - 1 + N]]
            assert np.array_equal(pair_code_prefix(k0, 3, N).values, want)


class TestMaskedCoin:
    def test_moments(self):
        x = masked_coin_prefix(seed=7, N=10**6 + 3)
        n = 10**6
        assert abs(chowla_sum(x, CorrelationSpec((1,), (2, 1)), n).final - 0.25) < 0.005
        assert abs(chowla_sum(x, CorrelationSpec((1,), (1, 1)), n).final) < 0.005
        assert abs(chowla_sum(x, CorrelationSpec((1, 3), (1, 1, 1)), n).final) < 0.005

    def test_zero_iff_next_is_tails(self):
        x = masked_coin_prefix(seed=7, N=1000)
        # a zero can only arise from masking, so the support density is ~1/2
        assert 0.4 < (x.values != 0).mean() < 0.6


class TestDoublingWord:
    def test_leading_minus_one(self):
        w = doubling_word_prefix(10**5)
        assert w[1] == -1
        nonzero = w.values[w.values != 0]
        assert nonzero[0] == -1
        assert np.all(nonzero[1:] == 1)

    def test_support_density_small(self):
        w = doubling_word_prefix(10**6)
        assert np.count_nonzero(w.values) / 10**6 < 1e-2

    def test_square_blocks_recur(self):
        # at N = 2 * len(A_6) the word is A_6 A_6, so every block of the
        # square from the first half recurs in the second half
        full = doubling_word_prefix(300_000)
        half = 125_312  # len of the 6th doubling stage
        sq = (full.values[: 2 * half] ** 2).astype(np.int8)
        first, second = sq[:half], sq[half:]
        for ell in range(1, 21):
            blocks_first = {first[i : i + ell].tobytes() for i in range(half - ell + 1)}
            blocks_second = {second[i : i + ell].tobytes() for i in range(half - ell + 1)}
            assert blocks_first <= blocks_second, ell


X64 = np.random.default_rng(8).integers(0, 2, size=64).tolist()


def brute_sparse_embed(values, N, g):
    """Pure-Python embedding: each level's first occurrences from a dict, in
    the dict's insertion order, padded by max(d, ceil((g-1)d/2)) zeros."""
    out = np.zeros(N, dtype=np.int8)
    pos, d = 0, 4
    while d <= len(values):
        first = {}
        for i in range(len(values) - d + 1):
            first.setdefault(tuple(values[i : i + d]), i)
        pad = max(d, math.ceil((g - 1) * d / 2))
        if pos + (d + 2 * pad) * len(first) > N:
            break
        for block in first:
            out[pos + pad : pos + pad + d] = block
            pos += d + 2 * pad
        d *= g
    return out


class TestSparseEmbed:
    @given(st.lists(st.integers(-1, 1), min_size=4, max_size=120), st.integers(1, 4000),
           st.integers(2, 5))
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force(self, values, N, g):
        emb = sparse_embed(SignSeq(values), N, g)
        assert emb.values.tobytes() == brute_sparse_embed(values, N, g).tobytes()

    @pytest.mark.parametrize("values, g, N, top", [
        pytest.param(values, g, 2 * 10**5, top, id=name if g == 2 else f"{name}-g{g}")
        for name, values in [
            ("constant", [1] * 300), ("period-5", [-1, 0, 1, 1, 0] * 60), ("period-2", [0, 1] * 150),
            ("golden-sturmian", sturmian_prefix(golden_params(), 300).values.tolist())]
        for g, top in ((2, 256), (3, 108), (4, 256), (5, 100))] + [
        # level 4g composes g labels of the 81 four-letter blocks, and
        # 81**10 > 2**63: for g 10 and 12 it is ranked before its tenth part
        pytest.param(np.random.default_rng(5).integers(-1, 2, size=600).tolist(), g, 4 * 10**5,
                     4 * g, id=f"uniform-g{g}") for g in (10, 12)] + [
        # 16 labels of {0,1} blocks, 17 parts: 16**17 > 2**64, so a key that
        # overflowed would drop the first part and merge the windows at 0 and 68
        pytest.param([0] * 4 + X64 + [1] * 4 + X64, 17, 2 * 10**5, 68, id="binary-g17")])
    def test_levels_past_39_letters_match_brute_force(self, values, g, N, top):
        # the level of ``top`` letters is past the 39 a base-3 code holds
        emb = sparse_embed(SignSeq(values), N, g)
        want = brute_sparse_embed(values, N, g)
        assert emb.values.tobytes() == want.tobytes()
        assert top > 39 and np.int8(values[:top]).tobytes() in want.tobytes()  # it was placed

    def test_traced_peak_on_a_constant_reference(self):
        # one block per level, up to d = 2**14: no window matrix per level
        w = SignSeq(np.ones(2**14, dtype=np.int8))
        assert traced_peak(sparse_embed, w, 10**6, 2) < 4 * 10**6

    def test_traced_peak_on_a_golden_sturmian_reference(self):
        # labels and key of one level beside one dense rank, about 7.5 MB
        w = sturmian_prefix(golden_params(), 2**18)
        assert traced_peak(sparse_embed, w, 2 * 10**6, 2) < 10 * 10**6

    def test_density_bound(self):
        rng = np.random.default_rng(5)
        w = SignSeq(rng.integers(-1, 2, size=5000))
        for g in (2, 3, 5):
            emb = sparse_embed(w, 200_000, g)
            assert np.count_nonzero(emb.values) / len(emb) <= 1 / g

    def test_all_short_blocks_appear(self):
        rng = np.random.default_rng(6)
        w = SignSeq(rng.integers(-1, 2, size=3000))
        emb = sparse_embed(w, 10**6, 2)
        for d in (4, 8):
            wanted = {w.values[i : i + d].tobytes() for i in range(len(w) - d + 1)}
            have = {emb.values[i : i + d].tobytes() for i in range(len(emb) - d + 1)}
            assert wanted <= have, d

    def test_autocorrelations_bounded_by_density(self):
        rng = np.random.default_rng(7)
        w = SignSeq(rng.integers(-1, 2, size=2000))
        emb = sparse_embed(w, 100_000, 4)
        density = np.count_nonzero(emb.values) / len(emb)
        for a in (1, 2, 5):
            value = chowla_sum(emb, CorrelationSpec((a,), (1, 1)), len(emb) - a).final
            assert abs(value) <= density

    def test_rejects_short_reference(self):
        with pytest.raises(ValueError, match="shorter"):
            sparse_embed(SignSeq([1, 0, 1]), 100, 2)


def brute_determinize(values, params):
    """Pure-Python recoding: (sequence, distinct blocks, changed fraction,
    unacceptable fraction, heavy block count) from a Counter of windows."""
    n, big_n, eps = params.n_block, params.big_n, params.epsilon
    windows = [tuple(values[i : i + n]) for i in range(len(values) - n + 1)]
    counts = Counter(windows)
    heavy_blocks = {b for b, c in counts.items() if c / len(windows) > params.heavy_threshold}
    heavy = [b in heavy_blocks for b in windows]
    out = list(values)
    fill = values[0]
    nblocks = len(values) // big_n
    distinct = set()
    unacceptable = 0
    for start in range(0, nblocks * big_n, big_n):
        good = heavy[start : start + big_n - n + 1]
        covered = [False] * big_n
        if sum(good) / big_n < 1.0 - eps:
            unacceptable += 1
        else:
            next_allowed = 0
            for j, is_heavy in enumerate(good):
                if is_heavy and j >= next_allowed:
                    covered[j : j + n] = [True] * n
                    next_allowed = j + n
        for i in range(big_n):
            if not covered[i]:
                out[start + i] = fill
        distinct.add(tuple(out[start : start + big_n]))
    processed = nblocks * big_n
    changed = sum(out[i] != values[i] for i in range(processed))
    return out, len(distinct), changed / processed, unacceptable / nblocks, len(heavy_blocks)


def recoding_summary(res):
    return (res.sequence.values.tolist(), res.distinct_block_count, res.changed_fraction,
            res.unacceptable_fraction, res.heavy_block_count)


@st.composite
def recoding_cases(draw):
    """Blocks that are each one repeated letter (three times in four) or
    random letters, so that acceptable and unacceptable blocks both occur."""
    # 15 and 16 give codes above 2**23, as long windows such as n_block 20 do
    n_block = draw(st.one_of(st.integers(1, 4), st.sampled_from([15, 16])))
    big_n = n_block * draw(st.integers(1, 6))
    run_letter = draw(st.sampled_from([-1, 0, 1]))
    values = []
    for _ in range(draw(st.integers(2, 10))):
        if draw(st.integers(0, 3)):
            values += [run_letter] * big_n
        else:
            values += draw(st.lists(st.integers(-1, 1), min_size=big_n, max_size=big_n))
    values += draw(st.lists(st.integers(-1, 1), max_size=big_n - 1))
    # dyadic epsilons make some thresholds 2**-k, which a window frequency can equal
    epsilons = [st.floats(0.05, 0.95), st.sampled_from([0.25, 0.5, 0.75])]
    # above it, heavy_threshold * (N - n_block + 1) < 1: every window is heavy
    all_heavy = math.log2(len(values) - n_block + 1) / n_block
    if all_heavy < 0.95:
        epsilons.append(st.floats(all_heavy, 0.95, exclude_min=True))
    epsilon = draw(st.one_of(epsilons))
    params = DeterminizeParams(epsilon, n_block, big_n)
    return values, params


class TestDeterminize:
    @given(recoding_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_pure_python_recoding(self, case):
        values, params = case
        res = determinize_step(SignSeq(values), params)
        assert recoding_summary(res) == brute_determinize(values, params)
        assert res.blocks_processed == len(values) // params.big_n

    @given(recoding_cases(), st.sampled_from([1, 2, 7]), st.sampled_from([1, 7, 64]))
    @settings(max_examples=50, deadline=None)
    def test_chunk_edges(self, case, chunk, piece):
        # groups of one block or a few; the heavy windows from pieces of
        # max(piece, ceil(2 size / t)) windows, one piece as t -> 1
        values, params = case
        with mock.patch.object(symbolicgen, "_CHUNK", chunk), \
                mock.patch.object(empirics, "_CHUNK", piece):
            res = determinize_step(SignSeq(values), params)
        assert recoding_summary(res) == brute_determinize(values, params)

    @given(recoding_cases(), st.sampled_from([1, 7, 1 << 20]))
    @settings(max_examples=40, deadline=None)
    def test_opened_file_recodes_alike(self, case, chunk):
        values, params = case
        with mock.patch.object(seqcore, "_CHUNK", chunk), tempfile.TemporaryDirectory() as tmp:
            write_sqz(os.path.join(tmp, "u.sqz"), SignSeq(values))
            res = determinize_step(seqcore._SqzFile(os.path.join(tmp, "u.sqz")), params)
        assert res == determinize_step(SignSeq(values), params)

    @pytest.mark.parametrize("chunk", [7, 1 << 16])
    def test_codes_past_the_sign_bit(self, chunk):
        # 60-letter blocks: random, or a 20-letter block coded 2**31 - 1, 2**31
        # or 3**20 - 1 written three times; the length-20 codes are uint32,
        # the repeated blocks heavy and the random blocks unacceptable
        rng = np.random.default_rng(11)
        blocks = [list(code_to_block(c, 20).letters) * 3 for c in (2**31 - 1, 2**31, 3**20 - 1)]
        values = []
        for i in range(24):
            values += blocks[i % 3] if i % 4 else rng.integers(-1, 2, size=60).tolist()
        params = DeterminizeParams(0.4, 20, 60)
        with mock.patch.object(symbolicgen, "_CHUNK", chunk):
            res = determinize_step(SignSeq(values), params)
        assert recoding_summary(res) == brute_determinize(values, params)
        assert res.heavy_block_count > 0 and res.unacceptable_fraction == 0.25

    def test_blocks_longer_than_a_chunk(self):
        # big_n = 2**17 > _CHUNK: each group is one block, whose windows are
        # coded at once.  Three blocks of ones, the second with 5 letters
        # changed (rewritten) and the third with 1,000 (unacceptable), then
        # 100 random letters; the window of ones alone is heavy (> 2**-0.08)
        big_n, rng = 2**17, np.random.default_rng(17)
        assert big_n > symbolicgen._CHUNK
        values = np.ones(3 * big_n + 100, dtype=np.int8)
        for block, changes in ((1, 5), (2, 1000)):
            at = block * big_n + rng.choice(big_n, changes, replace=False)
            values[at] = rng.choice([-1, 0], changes)
        values[3 * big_n :] = rng.integers(-1, 2, size=100)
        params = DeterminizeParams(0.005, 16, big_n)
        res = determinize_step(SignSeq(values), params)
        assert recoding_summary(res) == brute_determinize(values.tolist(), params)
        assert res.heavy_block_count == 1 and res.unacceptable_fraction == 1 / 3
        assert 0 < res.changed_fraction < 1 / 3

    def test_window_at_threshold_is_light(self):
        # (0, 1, 0, 1) fills 2 of the 16 windows, exactly the threshold 2**-3
        values = [1, 0, 1, 0, 1, 0, 1, 0, -1, -1, 0, -1, 1, -1, -1, 0, 1, -1, 0]
        params = DeterminizeParams(epsilon=0.75, n_block=4, big_n=8)
        res = determinize_step(SignSeq(values), params)
        assert 0.0 < res.unacceptable_fraction < 1.0
        assert recoding_summary(res) == brute_determinize(values, params)

    def test_constant_sequence_unchanged(self):
        u = SignSeq(np.ones(10_000, dtype=np.int8))
        res = determinize_step(u, DeterminizeParams(epsilon=0.2, n_block=10, big_n=100))
        assert res.sequence == u
        assert res.distinct_block_count == 1
        assert res.changed_fraction == 0.0

    def test_iid_collapses_to_constant(self):
        rng = np.random.default_rng(8)
        u = SignSeq(rng.integers(0, 2, size=50_000) * 2 - 1)
        res = determinize_step(u, DeterminizeParams(epsilon=0.1, n_block=20, big_n=100))
        # every 20-window has frequency ~2^-20, far below the 2^-2 threshold
        assert res.unacceptable_fraction == 1.0
        assert res.distinct_block_count == 1
        body = res.sequence.values[: res.blocks_processed * 100]
        assert np.all(body == u.values[0])

    def test_traced_peak_with_heavy_windows(self):
        # 13 heavy 12-windows, so the marking runs (the uniform prefixes of
        # the kernel memory tests have none): the output and a group of
        # blocks' codes and matrices, 1.76 B/symbol traced in a fresh process
        # (bound: + 5 %), where the whole-prefix code sort and N-sized
        # matrices traced 5.00
        N = 2**22
        u = sturmian_prefix(golden_params(), N)
        peak = traced_peak(determinize_step, u, DeterminizeParams(0.5, 12, 96))
        assert peak < 1.85 * N

    def test_rejects_big_n_exceeding_length(self):
        with pytest.raises(ValueError, match="big_n"):
            determinize_step(SignSeq([1, -1]), DeterminizeParams(0.1, 1, 4))

    def test_params_validation(self):
        with pytest.raises(ValueError, match="divisible"):
            DeterminizeParams(epsilon=0.1, n_block=3, big_n=10)
        with pytest.raises(ValueError, match="epsilon"):
            DeterminizeParams(epsilon=1.0, n_block=2, big_n=10)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_recoding_bounds(self, data):
        kind = data.draw(st.sampled_from(["iid", "periodic", "sturmian", "blocky"]))
        seed = data.draw(st.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        length = data.draw(st.integers(200, 2000))
        if kind == "iid":
            vals = rng.integers(-1, 2, size=length)
        elif kind == "periodic":
            period = rng.integers(1, 7)
            vals = np.resize(rng.integers(-1, 2, size=period), length)
        elif kind == "sturmian":
            vals = (np.mod(np.arange(1, length + 1) * 0.381966, 1.0) >= 0.618034).astype(np.int8)
        else:
            vals = np.repeat(rng.integers(-1, 2, size=max(1, length // 50)), 50)[:length]
        if length < 40:
            return
        u = SignSeq(vals)
        n_block = data.draw(st.sampled_from([2, 4, 5, 10]))
        multiple = data.draw(st.integers(2, max(2, length // (4 * n_block))))
        big_n = n_block * multiple
        if big_n > length:
            return
        eps = data.draw(st.sampled_from([0.05, 0.1, 0.2, 0.3]))
        params = DeterminizeParams(epsilon=eps, n_block=n_block, big_n=big_n)
        res = determinize_step(u, params)
        assert res.distinct_block_count < res.distinct_block_bound(params)
        assert res.changed_fraction < eps + res.unacceptable_fraction + 1e-12


@pytest.mark.parametrize("call, message", [
    (lambda: sparse_embed(SignSeq([1, 0, -1, 1]), 100, 1), "gap_growth must be >= 2"),
    (lambda: DeterminizeParams(epsilon=0.5, n_block=8, big_n=4), "big_n 4 < n_block 8"),
], ids=["sparse-embed-gap-growth-1", "determinize-big-n-below-n-block"])
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
