"""Block statistics: frequencies, complexity, the sign-extension audit."""

import contextlib
import itertools
import math
import signal
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chowla_lab import empirics, seqcore
from chowla_lab.correlations import ch_battery
from chowla_lab.empirics import (
    Block,
    SignExtensionReport,
    _window_codes,
    block_code,
    block_frequencies,
    code_to_block,
    complexity_profile,
    entropy_estimate,
    positive_frequency_blocks,
    sign_extension_test,
)
from chowla_lab.seqcore import SignSeq, pointwise_product, square_map, write_sqz
from chowla_lab.symbolicgen import (
    BernoulliParams,
    DeterminizeParams,
    SturmianParams,
    bernoulli_prefix,
    determinize_step,
    pair_code_prefix,
    sturmian_prefix,
)
from sign_test_oracle import sign_test
from traced_memory import traced_peak

LOG2_3 = math.log2(3)


def window_counts(values, ell):
    """Counter over the overlapping length-ell windows of a list."""
    return Counter(tuple(values[i : i + ell]) for i in range(len(values) - ell + 1))


def brute_frequencies(values, k):
    """Window-count oracle: dict {(tuple block): count} for lengths <= k."""
    out = {}
    for ell in range(1, k + 1):
        out.update(window_counts(values, ell))
    return out


letter_lists = st.lists(st.integers(-1, 1), min_size=1, max_size=200)


class TestWindowCodes:
    @given(letter_lists)
    @settings(max_examples=50, deadline=None)
    def test_every_window_matches_block_code(self, values):
        longest = min(len(values), 39)
        want = [
            [block_code(values[i : i + ell]) for i in range(len(values) - ell + 1)]
            for ell in range(1, longest + 1)
        ]
        arr = np.array(values, dtype=np.int8)
        for k in range(1, longest + 1):
            assert _window_codes(arr, k).tolist() == want[k - 1]

    @given(st.integers(1, 39), st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_length_matches_block_code(self, k, data):
        values = data.draw(st.lists(st.integers(-1, 1), min_size=k, max_size=200))
        codes = _window_codes(np.array(values, dtype=np.int8), k)
        assert codes.tolist() == [block_code(values[i : i + k])
                                  for i in range(len(values) - k + 1)]

    @pytest.mark.parametrize("k", range(1, 40))
    def test_one_window_when_n_is_k(self, k):
        values = np.random.default_rng(k).integers(-1, 2, size=k, dtype=np.int8)
        assert _window_codes(values, k).tolist() == [block_code(values.tolist())]

    def test_longest_code_does_not_overflow(self):
        ones = np.ones(50, dtype=np.int8)
        codes = _window_codes(ones, 39)
        assert codes.tolist() == [3**39 - 1] * 12
        assert _window_codes(ones[:39], 39).tolist() == [3**39 - 1]
        with pytest.raises(ValueError, match="overflows 64-bit base-3 packing"):
            DeterminizeParams(0.1, 40, 80)

    @pytest.mark.parametrize("scratch", [1, 3, 16, 64])
    def test_scratch_chunk_edges(self, monkeypatch, scratch):
        monkeypatch.setattr(empirics, "_CHUNK", scratch)
        values = np.random.default_rng(3).integers(-1, 2, size=300, dtype=np.int8)
        for k in range(1, 40):
            assert _window_codes(values, k).tolist() == [
                block_code(values[i : i + k].tolist()) for i in range(301 - k)]

    def test_dtype_widens_past_length_19(self):
        # 3**19 < 2**31 < 3**20 < 2**32 < 3**21
        values = np.ones(30, dtype=np.int8)
        assert _window_codes(values, 19).dtype == np.int32
        assert _window_codes(values, 20).dtype == np.uint32
        assert _window_codes(values, 20).tolist() == [3_486_784_400] * 11  # 3**20 - 1
        assert _window_codes(values, 21).dtype == np.int64

    @given(st.lists(st.integers(-1, 1), min_size=1, max_size=12), st.data())
    @settings(max_examples=50, deadline=None)
    def test_codes_sort_like_blocks(self, letters, data):
        other = data.draw(st.lists(st.integers(-1, 1), min_size=len(letters),
                                   max_size=len(letters)))
        assert code_to_block(block_code(letters), len(letters)).letters == tuple(letters)
        assert (block_code(letters) < block_code(other)) == (letters < other)

    def test_length_outside_prefix_rejected(self):
        with pytest.raises(ValueError, match="window length"):
            _window_codes(np.ones(5, dtype=np.int8), 6)
        with pytest.raises(ValueError, match="window length"):
            _window_codes(np.ones(5, dtype=np.int8), 0)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_heavy_block_count_matches_counter(self, data):
        values = data.draw(st.lists(st.integers(-1, 1), min_size=8, max_size=300))
        n_block = data.draw(st.integers(1, 8))
        big_n = n_block * data.draw(st.integers(1, len(values) // n_block))
        params = DeterminizeParams(data.draw(st.floats(0.01, 0.99)), n_block, big_n)
        counts = window_counts(values, n_block)
        total = len(values) - n_block + 1
        heavy = sum(1 for c in counts.values() if c / total > params.heavy_threshold)
        assert determinize_step(SignSeq(values), params).heavy_block_count == heavy

    @given(letter_lists, st.integers(1, 6),
           st.one_of(st.floats(0.0, 0.5), st.integers(1, 8).map(lambda k: 2.0**-k)),
           st.sampled_from([1, 7, 64, 1 << 16]))
    @settings(max_examples=80, deadline=None)
    def test_positive_frequency_blocks_match_counter(self, values, n, threshold, piece):
        # pieces of max(piece, ceil(2 size / t)) windows: several, or one as
        # t -> 1; a dyadic threshold can equal a frequency
        n = min(n, len(values))
        counts = window_counts(values, n)
        total = len(values) - n + 1
        want = {b for b, c in counts.items() if c / total > threshold}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(empirics, "_CHUNK", piece)
            got = positive_frequency_blocks(SignSeq(values), n, threshold)
        assert np.all(got[:-1] < got[1:])
        assert {code_to_block(c, n).letters for c in got.tolist()} == want


def sign_boundary_word(seed, copies=12):
    """Random letters around copies of the 20-letter blocks coded 2**31 - 1,
    2**31 and 3**20 - 1: length-20 codes on both sides of int32's sign bit,
    and the largest one uint32 holds."""
    rng = np.random.default_rng(seed)
    blocks = [list(code_to_block(c, 20).letters) for c in (2**31 - 1, 2**31, 3**20 - 1)]
    values = []
    for i in range(copies):
        values += blocks[i % 3] + rng.integers(-1, 2, size=rng.integers(0, 8)).tolist()
    return values


class TestSignBoundary:
    # 2**31 <= 3**20 - 1 < 2**32: the length-20 codes are uint32, where int32
    # would wrap the codes from 2**31 up negative and break their order
    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    def test_window_codes(self, monkeypatch, chunk):
        monkeypatch.setattr(empirics, "_CHUNK", chunk)
        values = sign_boundary_word(chunk)
        codes = _window_codes(np.array(values, dtype=np.int8), 20)
        assert codes.dtype == np.uint32
        assert codes.tolist() == [block_code(values[i : i + 20])
                                  for i in range(len(values) - 19)]
        assert {2**31 - 1, 2**31, 3**20 - 1} <= set(codes.tolist())

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    def test_complexity_profile(self, monkeypatch, chunk):
        monkeypatch.setattr(empirics, "_CHUNK", chunk)
        values = sign_boundary_word(chunk)
        want = [len(window_counts(values, n)) for n in range(1, 21)]
        assert complexity_profile(SignSeq(values), 20).counts.tolist() == want

    @pytest.mark.parametrize("period, n_max", [(2, 58), (7, 57)])
    def test_profile_level_past_the_sign_bit(self, monkeypatch, period, n_max):
        # p_39 = period, so the second level takes n_max - 39 letters with
        # 2**31 < period * 3**J < 2**32: uint32 codes led by the ranks
        tops = []
        def code_dtype(top, pick=empirics._code_dtype):
            tops.append(top)
            return pick(top)
        monkeypatch.setattr(empirics, "_code_dtype", code_dtype)
        values = np.resize([1, -1, 0, 1, -1, 0, 0][:period], 300).tolist()
        want = [len(window_counts(values, n)) for n in range(1, n_max + 1)]
        assert complexity_profile(SignSeq(values), n_max).counts.tolist() == want
        assert period * 3 ** (n_max - 39) in tops
        assert 2**31 < period * 3 ** (n_max - 39) < 2**32

    @pytest.mark.parametrize("threshold", [0.0, 0.01])
    def test_positive_frequency_blocks(self, threshold):
        values = sign_boundary_word(2)
        total = len(values) - 19
        want = sorted(block_code(b) for b, c in window_counts(values, 20).items()
                      if c / total > threshold)
        assert {2**31 - 1, 2**31, 3**20 - 1} <= set(want)
        assert positive_frequency_blocks(SignSeq(values), 20, threshold).tolist() == want

    def test_block_frequencies(self):
        values = sign_boundary_word(3)
        assert_counts_match(values, 20)
        measure = block_frequencies(SignSeq(values), 20)
        for code in (2**31 - 1, 2**31, 3**20 - 1):
            block = code_to_block(code, 20)
            assert measure.count(block) == window_counts(values, 20)[block.letters] >= 4


def uniform_prefix(N):
    """A uniform {-1,0,1} prefix of length N."""
    return SignSeq(np.random.default_rng(5).integers(-1, 2, size=N, dtype=np.int8))


class TestKernelMemory:
    # one window-code buffer beside the input, built by doubling through a
    # cache-sized scratch; an int64 digit copy and product temporary made
    # each of these about 25 B/symbol
    @pytest.mark.parametrize("call", [
        lambda z: block_frequencies(z, 12),
        lambda z: sign_extension_test(z, 8, 0.01),
        lambda z: determinize_step(z, DeterminizeParams(0.5, 12, 96)),
    ], ids=["block-frequencies", "sign-test", "determinize"])
    def test_traced_peak_per_symbol(self, call):
        N = 2**22
        assert traced_peak(call, uniform_prefix(N)) < 18 * N

    # the uint32 length-20 codes sorted in place and divided by 3 between
    # lengths (4.3 B/symbol traced, 8.3 as int64); heavy windows from pieces
    # of max(2**16, 2 size / t) codes, each sorted in place (2.29 traced at
    # t = 5, where sorting every code traced 5.0), and a recoding that holds
    # the output and one group of blocks (1.33, against 5.0 with N-sized
    # block matrices), each bound its traced value + 5 %; the uniforms drawn
    # in chunks and picked by np.putmask, and one length-k table, sorted in
    # place, that the shorter lengths and z^2 are derived from: a derived
    # length reduces its runs before it merges the last windows (43.7 traced
    # at length 15); the sign test's k = 16 peak, 50.2, is its deviation step
    # at length 15, as np.append runs only when an unseen pattern is added.
    # Up to 3**k <= N the length-k windows go into a dense int64 table as the
    # prefix is walked in chunks (0.51 B/symbol traced at k 8, 3.29 at k 12,
    # and the k 12 sign test 5.10; sorting every window code traced 4.06,
    # 6.53 and 6.53): each of those three bounds is its traced value + 5 %.
    # square_map squares each chunk into its output (1.00 traced; + 5 %)
    @pytest.mark.parametrize("call,bound", [
        (lambda z: complexity_profile(z, 20), 5),
        (lambda z: complexity_profile(z, 60), 8.8),  # distinct at 39: one int64 level
        (lambda z: determinize_step(z, DeterminizeParams(0.1, 20, 100)), 1.40),
        (lambda z: positive_frequency_blocks(z, 20, 1e-6), 2.41),
        (lambda z: bernoulli_prefix((-1, 0, 1), BernoulliParams((0.25, 0.5, 0.25), 1), len(z)),
         4),
        (lambda z: block_frequencies(z, 8), 0.54),
        (lambda z: block_frequencies(z, 12), 3.46),
        (lambda z: sign_extension_test(z, 12, 0.001), 5.36),
        (lambda z: block_frequencies(z, 16), 40),
        (lambda z: block_frequencies(z, 24), 40),
        (lambda z: block_frequencies(z, 16)._table(15), 46),
        (lambda z: sign_extension_test(z, 16, 0.001), 55),
        (square_map, 1.05),
    ], ids=["complexity-profile", "complexity-profile-60", "determinize-n20",
            "positive-frequency-n20", "bernoulli", "block-frequencies-k8",
            "block-frequencies-k12",
            "sign-test-k12", "block-frequencies-k16", "block-frequencies-k24", "table-k16-15",
            "sign-test-k16", "square-map"])
    def test_narrow_kernel_peak_per_symbol(self, call, bound):
        N = 2**22
        assert traced_peak(call, uniform_prefix(N)) < bound * N

    # an opened file is walked: the profile's uint32 code buffer fills a
    # piece at a time beside a read chunk, 4.56 B/symbol traced, and the
    # recoding holds the output beside a group of blocks, 1.78, where the
    # whole prefix read first and its codes made at once took 5 B/symbol
    # more (bounds: traced + 5 %)
    @pytest.mark.parametrize("call,bound", [
        (lambda z: complexity_profile(z, 20), 4.79),
        (lambda z: determinize_step(z, DeterminizeParams(0.1, 20, 100)), 1.87),
    ], ids=["complexity-profile", "determinize-n20"])
    def test_opened_file_peak_per_symbol(self, tmp_path, call, bound):
        N = 2**22
        write_sqz(tmp_path / "z.sqz", uniform_prefix(N))
        assert traced_peak(call, seqcore._SqzFile(tmp_path / "z.sqz")) < bound * N

    def test_battery_curves_are_one_table(self):
        # 69,040 specs at N = 10^4: each entry reads its curve from one int64
        # (checkpoints x specs) table of running totals; this traced 30.3 MB
        # (bound: + 5 %), where a tuple curve per entry traced 102.2 MB
        z = uniform_prefix(10**4 + 12)
        assert traced_peak(ch_battery, z, 12, 5, 10**4, 0.1) < 31_850_000

    def test_second_level_peak_per_symbol(self):
        # a golden Sturmian prefix has 40 windows of length 39, so lengths 40
        # to 60 take a second level: its int64 codes beside the int32 ranks
        N = 2**22
        eta = sturmian_prefix(SturmianParams(alpha=(3 - math.sqrt(5)) / 2), N)
        assert traced_peak(complexity_profile, eta, 60) < 13 * N


def assert_counts_match(values, k):
    measure = block_frequencies(SignSeq(values), k)
    for ell in range(1, k + 1):
        got = {b.letters: measure.count(b) for b, _ in measure.items(ell)}
        assert got == window_counts(values, ell)


class TestBlockFrequencies:
    def test_against_brute_force(self):
        rng = np.random.default_rng(0)
        values = rng.integers(-1, 2, size=500).tolist()
        measure = block_frequencies(SignSeq(values), 5)
        oracle = brute_frequencies(values, 5)
        for ell in range(1, 6):
            got = {b.letters: round(f * measure.denominator(ell)) for b, f in measure.items(ell)}
            want = {b: c for b, c in oracle.items() if len(b) == ell}
            assert got == want

    def test_alternating(self):
        z = SignSeq(np.resize([1, -1], 10_000))
        m = block_frequencies(z, 2)
        assert abs(m.freq(Block((1, -1))) - 0.5) < 1e-4

    def test_constant(self):
        z = SignSeq(np.ones(1000, dtype=np.int8))
        m = block_frequencies(z, 3)
        assert m.freq(Block((1, 1, 1))) == 1.0

    def test_coin_blocks_uniform(self):
        z = bernoulli_prefix((-1, 1), BernoulliParams((0.5, 0.5), seed=4), 10**6)
        m = block_frequencies(z, 8)
        freqs = [f for _, f in m.items(8)]
        assert len(freqs) == 256
        assert all(abs(f - 2**-8) < 0.002 for f in freqs)

    def test_normalization_per_length(self):
        rng = np.random.default_rng(1)
        m = block_frequencies(SignSeq(rng.integers(-1, 2, size=2000)), 6)
        for ell in range(1, 7):
            assert abs(sum(f for _, f in m.items(ell)) - 1.0) < 1e-9

    @given(st.integers(0, 2**31), st.integers(200, 800), st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_extension_consistency(self, seed, n, k):
        # freq(B) = sum_s freq(B.s) up to window-boundary slack 2k/N
        rng = np.random.default_rng(seed)
        w = SignSeq(rng.integers(-1, 2, size=n))
        m = block_frequencies(w, k)
        slack = 2 * k / n
        for ell in range(1, k):
            for block, f in m.items(ell):
                extended = sum(
                    m.freq(Block(block.letters + (s,))) for s in (-1, 0, 1)
                )
                assert abs(f - extended) <= slack

    @given(st.data(), st.integers(1, 14))
    @settings(max_examples=50, deadline=None)
    def test_dense_tally_matches_counter(self, data, k):
        values = data.draw(st.lists(st.integers(-1, 1), min_size=10 * k, max_size=10 * k + 200))
        assert_counts_match(values, k)

    @pytest.mark.parametrize("k", [15, 16, 24])
    def test_sorted_tally_matches_counter(self, k):
        assert_counts_match(np.random.default_rng(k).integers(-1, 2, size=600).tolist(), k)

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    @pytest.mark.parametrize("n, k", [(3**7 - 1, 7), (3**7, 7), (3**7 + 1, 7), (3**7 - 1, 6)])
    def test_dense_and_sorted_tables_agree(self, monkeypatch, chunk, n, k):
        # block_frequencies counts length k in a dense table only while
        # 3**k <= min(N, _DENSE_CODES); _DENSE_CODES = 0 forces the sorted
        # path, and both must give every table and count of the oracle
        monkeypatch.setattr(empirics, "_CHUNK", chunk)
        values = np.random.default_rng(n + k).integers(-1, 2, size=n)
        w = SignSeq(values)
        default = block_frequencies(w, k)
        monkeypatch.setattr(empirics, "_DENSE_CODES", 0)
        srt = block_frequencies(w, k)
        blocks = [b for ell in range(1, k + 1) for b in itertools.product((-1, 0, 1), repeat=ell)]
        for ell in range(1, k + 1):
            for got, want in zip(default._table(ell), srt._table(ell)):
                assert got.dtype == want.dtype == np.int64
                assert got.tolist() == want.tolist()
            oracle = window_counts(values.tolist(), ell)
            assert {code_to_block(c, ell).letters: int(n) for c, n in
                    zip(*(a.tolist() for a in srt._table(ell)))} == oracle
        for b in blocks:
            assert default.count(b) == srt.count(b)

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_run_starts_across_chunks(self, monkeypatch, chunk):
        # 29..36 windows: the last chunk of the run-start pass takes every
        # length from 1 to 7
        monkeypatch.setattr(empirics, "_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        for n in range(31, 39):
            assert_counts_match(rng.integers(-1, 2, size=n).tolist(), 3)

    @pytest.mark.parametrize("k", [2, 5, 14, 15, 24])
    def test_last_windows_counted(self, k):
        # (1, -1, 1, -1) and its tails occur only among the last k - ell windows,
        # which no length-k window extends
        assert_counts_match([0] * 300 + [1, -1, 1, -1], k)

    @pytest.mark.parametrize("k", [8, 16])
    def test_keeps_no_walked_chunk(self, tmp_path, k):
        # the measure copies the last k - 1 letters: a view would keep the
        # last 2^20-byte chunk (k 8) or the N-byte buffer the file was read
        # into (k 16) alive with it
        write_sqz(tmp_path / "z.sqz", uniform_prefix(2**20))
        source = seqcore._SqzFile(tmp_path / "z.sqz")
        tracemalloc.start()
        try:
            m = block_frequencies(source, k)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < m._codes.nbytes + m._counts.nbytes + 2**16

    @pytest.mark.parametrize("block", [(1, -1, 7), [0.5]], ids=["letter-7", "letter-0.5"])
    def test_rejects_letters_outside_the_alphabet(self, block):
        # the base-3 code read (1, -1, 7) as another block and [0.5] as (0,)
        m = block_frequencies(SignSeq(np.random.default_rng(0).integers(-1, 2, size=1000)), 3)
        with pytest.raises(ValueError, match="out of alphabet"):
            m.count(block)
        with pytest.raises(ValueError, match="out of alphabet"):
            m.freq(block)

    def test_guards(self):
        with pytest.raises(ValueError, match="k must be"):
            block_frequencies(SignSeq([1] * 100), 25)
        with pytest.raises(ValueError, match="10\\*k"):
            block_frequencies(SignSeq([1] * 30), 5)
        m = block_frequencies(SignSeq([1, 0] * 50), 3)
        for length in (0, 4):  # items refuses at the call, not at the first item
            with pytest.raises(ValueError, match=f"block length {length} outside 1..3"):
                m.items(length)
        with pytest.raises(ValueError, match="block length 4 outside 1..3"):
            m.count([1] * 4)


class TestPartitionIdentity:
    @given(st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_sign_classes_sum_to_square_mass(self, seed):
        rng = np.random.default_rng(seed)
        z = SignSeq(rng.integers(-1, 2, size=600))
        k = 4
        mz = block_frequencies(z, k)
        mz2 = block_frequencies(square_map(z), k)
        for ell in range(1, k + 1):
            by_square = Counter()
            for block, f in mz.items(ell):
                by_square[tuple(v * v for v in block.letters)] += f
            for sq_block, f2 in mz2.items(ell):
                assert abs(by_square[sq_block.letters] - f2) < 1e-9


@st.composite
def profile_inputs(draw):
    """{-1,0,1} words, periodic words, two-letter words and repeated random
    blocks of 40..150 letters, of length 1..300.  A repeated block keeps p_n
    in the hundreds past 39 letters, so a second level is bound by p, not 39."""
    length = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["three-letter", "periodic", "two-letter", "repeated"]))
    if kind in ("periodic", "repeated"):
        size = (1, 12) if kind == "periodic" else (40, 150)
        pattern = draw(st.lists(st.integers(-1, 1), min_size=size[0], max_size=size[1]))
        return (pattern * length)[:length]
    letters = (-1, 0, 1) if kind == "three-letter" else draw(
        st.sampled_from([(-1, 1), (0, 1), (-1, 0)]))
    return draw(st.lists(st.sampled_from(letters), min_size=length, max_size=length))


class TestComplexityProfile:
    @given(profile_inputs(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_distinct_windows(self, values, data):
        want = [len(window_counts(values, n)) for n in range(1, len(values) + 1)]
        w = SignSeq(values)
        assert complexity_profile(w, len(values)).counts.tolist() == want
        n_max = data.draw(st.integers(1, min(len(values), 60)))
        assert complexity_profile(w, n_max).counts.tolist() == want[:n_max]

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        values = rng.integers(-1, 2, size=400)
        profile = complexity_profile(SignSeq(values), 12)
        for n in range(1, 13):
            want = len({values[i : i + n].tobytes() for i in range(401 - n)})
            assert profile.p(n) == want

    @pytest.mark.parametrize("n_max", [1, 2, 19, 20, 39, 40, 201])
    @pytest.mark.parametrize("values", [[0] * 200 + [1], [1, -1] * 100 + [0], [-1] + [1] * 200],
                             ids=["last-letter-new", "periodic-then-new", "first-letter-new"])
    def test_new_window_only_among_the_last(self, values, n_max):
        # a length-n window containing the odd letter at the end starts no
        # length-n_max window, so only the last-window search counts it
        want = [len(window_counts(values, n)) for n in range(1, n_max + 1)]
        assert complexity_profile(SignSeq(values), n_max).counts.tolist() == want

    @pytest.mark.parametrize("n_max", [19, 20, 39, 40])
    def test_code_dtype_and_rank_handover(self, n_max):
        # int32 codes up to 19, uint32 at 20, int64 from 21; one level up to
        # 39, a second level, its codes led by the length-39 ranks, from 40
        values = np.random.default_rng(n_max).integers(-1, 2, size=400).tolist()
        for prefix in (values, values[:n_max]):  # the second has n_max = N
            want = [len(window_counts(prefix, n)) for n in range(1, n_max + 1)]
            assert complexity_profile(SignSeq(prefix), n_max).counts.tolist() == want

    @pytest.mark.parametrize("repeat, n_max", [(20, 60), (39, 60), (40, 60), (None, 200)],
                             ids=["distinct-from-21", "distinct-from-40", "distinct-from-41",
                                  "period-7"])
    def test_all_distinct_stop(self, repeat, n_max):
        # random letters then a copy of their first `repeat`: every window of
        # length repeat + 1 is distinct, so the level that reaches it stops
        # and fills the longer counts as N - n + 1; a periodic word never stops
        if repeat is None:
            values = [1, 0, -1, -1, 0, 1, 1] * 43
        else:
            base = np.random.default_rng(repeat).integers(-1, 2, size=200).tolist()
            values = base + base[:repeat]
        want = [len(window_counts(values, n)) for n in range(1, n_max + 1)]
        distinct = [n for n in range(1, n_max + 1) if want[n - 1] == len(values) - n + 1]
        assert distinct[:1] == ([] if repeat is None else [repeat + 1])
        assert complexity_profile(SignSeq(values), n_max).counts.tolist() == want

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunk_edges(self, tmp_path, monkeypatch, chunk):
        # chunks overlap by one entry; int32 codes up to 19 letters, uint32 at
        # 20 and int64 above; a 45-letter period takes lengths 40 to 60 in a
        # second level; an opened file is walked in chunks of chunk + 3
        monkeypatch.setattr(empirics, "_CHUNK", chunk)
        monkeypatch.setattr(seqcore, "_CHUNK", chunk + 3)
        values = np.random.default_rng(4).integers(-1, 2, size=1000).tolist()
        periodic = (values[:45] * 23)[:1000]
        for word, n_max in [(values, 12), (values, 19), (values, 20), (values, 39),
                            (periodic, 60)]:
            # 4 * chunk + 1 codes fill four chunks exactly; one more code adds a one-pair chunk
            for N in (1000, 4 * chunk + n_max, 4 * chunk + n_max + 1):
                want = [len(window_counts(word[:N], n)) for n in range(1, n_max + 1)]
                assert complexity_profile(SignSeq(word[:N]), n_max).counts.tolist() == want
                write_sqz(tmp_path / "w.sqz", SignSeq(word[:N]))
                opened = seqcore._SqzFile(tmp_path / "w.sqz")
                assert complexity_profile(opened, n_max).counts.tolist() == want

    @pytest.mark.parametrize("kind", ["random", "periodic", "golden-sturmian"])
    def test_sorted_path_matches_rank_walk(self, kind):
        # n_max 40 takes a second level, led by the length-39 ranks, n_max 39
        # one level; at this scale no brute-force oracle fits in the test time
        N = 20_000
        if kind == "random":
            w = SignSeq(np.random.default_rng(6).integers(-1, 2, size=N, dtype=np.int8))
        elif kind == "periodic":
            w = SignSeq(np.resize(np.array([1, 0, -1, -1, 0, 1, 1, 0, 0, -1, 1], np.int8), N))
        else:
            w = sturmian_prefix(SturmianParams(alpha=(3 - math.sqrt(5)) / 2), N)
        walk = complexity_profile(w, 40).counts[:39]
        assert complexity_profile(w, 39).counts.tolist() == walk.tolist()

    def test_constant(self):
        profile = complexity_profile(SignSeq(np.zeros(500, dtype=np.int8)), 20)
        assert np.all(profile.counts == 1)

    def test_sturmian(self):
        eta = sturmian_prefix(SturmianParams(alpha=(3 - math.sqrt(5)) / 2), 50_000)
        assert complexity_profile(eta, 60).counts.tolist() == list(range(2, 62))

    def test_square_never_more_complex(self):
        rng = np.random.default_rng(3)
        z = SignSeq(rng.integers(-1, 2, size=5000))
        pz = complexity_profile(z, 10).counts
        pz2 = complexity_profile(square_map(z), 10).counts
        assert np.all(pz2 <= pz)

    def test_masked_coin_count_inequality(self):
        # golden-density Sturmian masked by a fair coin: block counts of the
        # signed word sit between p_n(square) * 2^(dn -/+ 3), lower bound
        # with a factor-1/2 realization slack at finite scale
        delta = (3 - math.sqrt(5)) / 2
        n_total = 10**6
        eta = sturmian_prefix(SturmianParams(alpha=delta), n_total)
        u = bernoulli_prefix((-1, 1), BernoulliParams((0.5, 0.5), seed=12), n_total)
        z = pointwise_product(eta, u)
        pz = complexity_profile(z, 12).counts
        pz2 = complexity_profile(square_map(z), 12).counts
        for n in range(1, 13):
            assert pz[n - 1] < pz2[n - 1] * 2 ** (delta * n + 3)
            assert pz[n - 1] > 0.5 * pz2[n - 1] * 2 ** (delta * n - 3)

    @given(st.integers(0, 2**31), st.integers(50, 500))
    @settings(max_examples=25, deadline=None)
    def test_monotone_up_to_boundary(self, seed, n):
        # at most one block can occur solely at the final window, so p can
        # drop by at most 1 per step on a finite prefix
        rng = np.random.default_rng(seed)
        counts = complexity_profile(SignSeq(rng.integers(-1, 2, size=n)), min(20, n)).counts
        assert np.all(np.diff(counts) >= -1)

    @given(st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_subadditive_exactly(self, seed):
        rng = np.random.default_rng(seed)
        counts = complexity_profile(SignSeq(rng.integers(-1, 2, size=300)), 12).counts
        for m in range(1, 6):
            for n in range(1, 6):
                assert counts[m + n - 1] <= counts[m - 1] * counts[n - 1]


class TestEntropyEstimate:
    def test_constant_is_zero(self):
        profile = complexity_profile(SignSeq(np.ones(500, dtype=np.int8)), 12)
        assert entropy_estimate(profile, 4, 10).value == 0.0

    def test_iid_three_letters(self):
        rng = np.random.default_rng(4)
        z = SignSeq(rng.integers(-1, 2, size=10**6))
        est = entropy_estimate(complexity_profile(z, 12), 8, 12)
        assert 0.9 * LOG2_3 <= est.value <= LOG2_3

    def test_window_validation(self):
        profile = complexity_profile(SignSeq(np.ones(100, dtype=np.int8)), 10)
        with pytest.raises(ValueError):
            entropy_estimate(profile, 5, 5)

    def test_estimate_dominates_support_density(self):
        # sign-randomized products have entropy at least their support
        # density; the finite-scale estimate respects that with its slack
        n = 10**6
        eta = sturmian_prefix(SturmianParams(alpha=(3 - math.sqrt(5)) / 2), n)
        u = bernoulli_prefix((-1, 1), BernoulliParams((0.5, 0.5), seed=14), n)
        z = pointwise_product(eta, u)
        est = entropy_estimate(complexity_profile(z, 14), 10, 14)
        density = (z.values != 0).mean()
        assert est.value + est.uncertainty >= density


class TestSignExtension:
    def test_all_zero_passes_vacuously(self):
        rep = sign_extension_test(SignSeq(np.zeros(5000, dtype=np.int8)), 4, 0.01)
        assert rep.passed
        assert rep.max_violation == 0.0

    def test_three_letter_bernoulli_passes(self):
        # the (1/4, 1/2, 1/4) coin is exactly the sign-randomized extension
        # of the fair {0,1} coin
        z = bernoulli_prefix((-1, 0, 1), BernoulliParams((0.25, 0.5, 0.25), seed=6), 10**6)
        rep = sign_extension_test(z, 6, 0.01)
        assert rep.passed

    def test_sturmian_times_coin_passes(self):
        eta = sturmian_prefix(SturmianParams(alpha=(3 - math.sqrt(5)) / 2), 10**6)
        u = bernoulli_prefix((-1, 1), BernoulliParams((0.5, 0.5), seed=7), 10**6)
        rep = sign_extension_test(pointwise_product(eta, u), 6, 0.01)
        assert rep.passed

    def test_pair_code_fails_with_length_two_witness(self):
        # exact deviation 3/256 at (1,-1): the pair (+1 then -1) never occurs
        z = pair_code_prefix(2, seed=42, N=10**6)
        rep = sign_extension_test(z, 6, 0.01)
        assert not rep.passed
        assert any(len(b) == 2 for b, _ in rep.violations)
        assert abs(rep.max_violation - 3 / 256) < 1e-3

    def test_guards(self):
        with pytest.raises(ValueError, match="k must be"):
            sign_extension_test(SignSeq([1] * 400), 17, 0.01)
        z = SignSeq(np.random.default_rng(0).integers(-1, 2, size=2000))
        for audit_factor in (float("nan"), float("inf"), -1.0):  # nan and -1 audited like 0
            with pytest.raises(ValueError, match="audit_factor must be finite and >= 0"):
                sign_extension_test(z, 3, 0.01, audit_factor)


def oracle_report(values, k, tol, audit_factor=2.0):
    passed, max_violation, witness, violations, audited = sign_test(values, k, tol, audit_factor)
    return SignExtensionReport(
        passed=passed,
        max_violation=max_violation,
        witness=Block(witness) if witness else None,
        violations=tuple((Block(b), d) for b, d in violations),
        k=k,
        tol=tol,
        audited_blocks=audited,
    )


@st.composite
def weighted_words(draw, min_size=30, max_size=400):
    """Words drawn with random letter probabilities for -1, 0 and 1."""
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(min_size, max_size))
    return rng.choice([-1, 0, 1], size=size, p=weights / weights.sum()).tolist()


tols = st.sampled_from([1e-3, 1e-2, 5e-2, 1e-1])
# 0.3 also lets an unobserved pattern be the witness of a passing report
wide_tols = st.sampled_from([1e-3, 1e-2, 5e-2, 1e-1, 0.3])


class TestSignTestOracle:
    """Reports equal, float bits included, to the loop form in sign_test_oracle."""

    @given(weighted_words(), st.integers(1, 7), tols, st.sampled_from([0.0, 0.5, 2.0]))
    @settings(max_examples=100, deadline=None)
    def test_random_prefixes(self, values, k, tol, audit_factor):
        k = min(k, len(values) // 10)
        got = sign_extension_test(SignSeq(values), k, tol, audit_factor)
        assert got == oracle_report(values, k, tol, audit_factor)

    @given(st.lists(st.integers(-1, 1), min_size=1, max_size=8), st.integers(30, 400),
           st.integers(1, 7), wide_tols)
    @example([-1, -1, 1, -1], 32, 3, 0.1)  # lengths 1 and 2 tie at 0.25: length 1 wins
    @example([-1, -1, 1, 1], 30, 3, 0.3)  # the unobserved (-1, -1, -1) is the witness
    @settings(max_examples=60, deadline=None)
    def test_periodic_words_break_ties_alike(self, pattern, n, k, tol):
        values = (pattern * n)[:n]
        k = min(k, n // 10)
        assert sign_extension_test(SignSeq(values), k, tol) == oracle_report(values, k, tol)

    @given(st.sampled_from([(0, 1), (-1, 0), (1,), (-1, 1)]), st.data(), wide_tols)
    @settings(max_examples=60, deadline=None)
    def test_short_prefixes_with_unseen_patterns(self, letters, data, tol):
        # few windows, missing letters: many sign patterns are never observed
        # yet have target > tol, so they are violations and can be witnesses
        values = data.draw(st.lists(st.sampled_from(letters), min_size=30, max_size=60))
        k = data.draw(st.integers(1, len(values) // 10))
        assert sign_extension_test(SignSeq(values), k, tol) == oracle_report(values, k, tol)

    def test_unseen_patterns_are_reported(self):
        rep = sign_extension_test(SignSeq([1] * 30), 2, 0.1)
        assert rep.violations[0] == (Block((-1,)), 0.5)
        assert rep.witness == Block((1, 1)) and rep.max_violation == 0.75
        assert rep == oracle_report([1] * 30, 2, 0.1)


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestPositiveFrequencyBlocks:
    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 1e300, 1.0, 0.999, -1.0,
                                           -math.inf])
    def test_threshold_edges(self, threshold):
        # no frequency exceeds the first five, every one exceeds the last two; the
        # search for the least heavy count once ran for ever at 1e300
        values = np.resize([1, 0, -1, -1], 40).tolist()
        observed = sorted(block_code(b) for b in window_counts(values, 2))
        with time_limit(5):
            got = positive_frequency_blocks(SignSeq(values), 2, threshold)
        assert got.tolist() == (observed if threshold < 0 else [])

    def test_periodic(self):
        z = SignSeq(np.resize([1, 0, -1], 3000))
        codes = positive_frequency_blocks(z, 3, 0.1)
        assert [code_to_block(c, 3).letters for c in codes.tolist()] == [
            (-1, 1, 0), (0, -1, 1), (1, 0, -1)]

    def test_longest_windows(self):
        # int64 codes hold 39 letters, the longest n_block DeterminizeParams allows
        values = np.resize([1, 0, -1], 3000)
        codes = positive_frequency_blocks(SignSeq(values), 39, 0.1)
        want = sorted(tuple(values[s : s + 39].tolist()) for s in range(3))
        assert [code_to_block(c, 39).letters for c in codes.tolist()] == want
        with pytest.raises(ValueError, match="1..39"):
            positive_frequency_blocks(SignSeq(values), 40, 0.1)

    def test_threshold_above_one_empty(self):
        z = SignSeq(np.resize([1, 0], 1000))
        assert positive_frequency_blocks(z, 2, 1.1).size == 0

    def test_coin_all_blocks(self):
        z = bernoulli_prefix((-1, 1), BernoulliParams((0.5, 0.5), seed=8), 10**6)
        assert len(positive_frequency_blocks(z, 4, 0.01)) == 16
