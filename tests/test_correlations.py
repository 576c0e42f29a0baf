"""Correlation sums, the battery, orbit samplers, the grid scan."""

import math
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chowla_lab import correlations, seqcore
from chowla_lab.correlations import (
    CorrelationSpec,
    PeriodicSampler,
    RotationSampler,
    SubshiftSampler,
    ch_battery,
    chowla_sum,
    davenport_scan,
    enumerate_chowla_specs,
    sarnak_sum,
    _pairwise,
    strong_sarnak_sum,
)
from chowla_lab.empirics import block_frequencies, code_to_block
from chowla_lab.numbergen import liouville_prefix, mobius_prefix
from chowla_lab.seqcore import SignSeq, _SqzFile, square_map, write_sqz
from chowla_lab.symbolicgen import masked_coin_prefix

from traced_memory import traced_peak


def random_seq(seed, n):
    return SignSeq(np.random.default_rng(seed).integers(-1, 2, size=n))


def brute_prefix_sums(values, spec, N, weight=lambda m: 1):
    """sums[n] = sum over m <= n of weight(m) prod_s z^{i_s}(m + a_s), by a
    per-m loop."""
    shifts = (0,) + spec.lags
    sums = [0]
    for m in range(1, N + 1):
        term = weight(m)
        for a, i in zip(shifts, spec.exponents):
            term *= values[m + a - 1] ** i
        sums.append(sums[-1] + term)
    return sums


def checkpoint_bounds(N):
    return sorted({max(1, j * N // 10) for j in range(1, 11)})


def reference_curve(sampler, z, spec, N):
    """The whole f * product array, each checkpoint slice added with one np.sum."""
    product = np.ones(N, dtype=np.int64)
    for a, i in zip((0,) + spec.lags, spec.exponents):
        product *= z.values[a : a + N].astype(np.int64) ** i
    terms = sampler.values(0, N) * product
    points, total, prev = [], 0.0, 0
    for b in checkpoint_bounds(N):
        total += float(np.sum(terms[prev:b], dtype=np.float64))
        points.append((b, total / b))
        prev = b
    return points


def float_bytes(points):
    return [(n, value.hex()) for n, value in points]


# lengths around the 64-bit word boundaries of the bitplanes, and any other
lengths = st.one_of(st.sampled_from([1, 63, 64, 65, 127, 128, 129]), st.integers(1, 300))


@st.composite
def prefixes(draw, min_extra=0):
    """(values, N): a {-1,0,1} prefix with 0..12 terms beyond N (at least min_extra)."""
    N = draw(lengths)
    size = N + draw(st.integers(min_extra, 12))
    values = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=size, max_size=size))
    return values, N


@st.composite
def specs_within(draw, room):
    """A spec whose lags reach at most ``room`` terms past N."""
    lags = sorted(draw(st.sets(st.integers(1, room), max_size=min(3, room)))) if room else []
    exponents = draw(st.lists(st.sampled_from([1, 2]), min_size=len(lags) + 1,
                              max_size=len(lags) + 1))
    return CorrelationSpec(tuple(lags), tuple(exponents))


class TestCorrelationSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            CorrelationSpec((2, 2), (1, 1, 1))
        with pytest.raises(ValueError, match="exponents"):
            CorrelationSpec((1,), (1,))
        with pytest.raises(ValueError, match="lags must be >= 1"):
            CorrelationSpec((0,), (1, 1))

    def test_enumeration_counts_and_order(self):
        specs = enumerate_chowla_specs(5, 2)
        assert len(specs) == 1 + 5 * 3 + 10 * 7
        assert all(1 in s.exponents for s in specs)
        assert specs == enumerate_chowla_specs(5, 2)  # deterministic

    def test_r_stops_at_max_lag(self):
        # no lag set inside {1..3} has more than 3 lags
        assert enumerate_chowla_specs(3, 10**11) == enumerate_chowla_specs(3, 3)


class TestChowlaSum:
    def test_alternating_lag_one(self):
        z = SignSeq(np.resize([1, -1], 10_000))
        value = chowla_sum(z, CorrelationSpec((1,), (1, 1)), 9000).final
        assert value == -1.0

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="need N \\+ max lag"):
            chowla_sum(SignSeq([1] * 10), CorrelationSpec((5,), (1, 1)), 6)

    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_n_rejected(self, n):
        z = random_seq(0, 100)
        spec = CorrelationSpec((1,), (1, 1))
        with pytest.raises(ValueError, match="N must be >= 1"):
            chowla_sum(z, spec, n)
        with pytest.raises(ValueError, match="N must be >= 1"):
            strong_sarnak_sum(PeriodicSampler((1.0,)), z, spec, n)
        with pytest.raises(ValueError, match="N must be >= 1"):
            ch_battery(z, 3, 1, n, 0.1)

    def test_checkpoints_increasing_to_n(self):
        curve = chowla_sum(random_seq(0, 2000), CorrelationSpec((1,), (1, 1)), 1000)
        ns = [n for n, _ in curve.checkpoints]
        assert ns == sorted(ns) and ns[-1] == 1000

    @given(st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_all_squares_equal_squared_sequence(self, seed):
        # prod z^2(n+a_s) over z equals prod (z^2)(n+a_s) with exponents 1
        z = random_seq(seed, 400)
        spec2 = CorrelationSpec((1, 3), (2, 2, 2))
        spec1 = CorrelationSpec((1, 3), (1, 1, 1))
        a = chowla_sum(z, spec2, 300)
        b = chowla_sum(square_map(z), spec1, 300)
        assert a.checkpoints == b.checkpoints

    @given(st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_pm_one_sequences_ignore_square_exponents(self, seed):
        values = np.random.default_rng(seed).integers(0, 2, size=400) * 2 - 1
        z = SignSeq(values)
        with_square = chowla_sum(z, CorrelationSpec((2,), (1, 2)), 300)
        # an exponent-2 factor of a +-1 sequence is identically 1
        without = chowla_sum(z, CorrelationSpec((), (1,)), 300)
        assert with_square.checkpoints == without.checkpoints

    @given(st.integers(0, 2**31), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_support_density_bound(self, seed, lag):
        z = random_seq(seed, 500)
        n = 400
        value = chowla_sum(z, CorrelationSpec((lag,), (1, 1)), n).final
        density = np.count_nonzero(z.values[:n]) / n
        assert abs(value) <= density + 1e-12


class TestBruteForceOracle:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_chowla_sum_every_checkpoint(self, data):
        values, N = data.draw(prefixes())
        spec = data.draw(specs_within(len(values) - N))
        sums = brute_prefix_sums(values, spec, N)
        curve = chowla_sum(SignSeq(values), spec, N)
        assert curve.checkpoints[-1][0] == N
        for n, value in curve.checkpoints:
            assert value == sums[n] / n

    @given(prefixes(min_extra=4))
    @settings(max_examples=60, deadline=None)
    def test_battery_every_entry(self, prefix):
        values, N = prefix
        report = ch_battery(SignSeq(values), 4, 2, N, 0.1)
        assert [e.spec for e in report.entries] == enumerate_chowla_specs(4, 2)
        for e in report.entries:
            sums = brute_prefix_sums(values, e.spec, N)
            assert [n for n, _ in e.curve.checkpoints] == checkpoint_bounds(N)
            for n, value in e.curve.checkpoints:
                assert value == sums[n] / n
            assert e.value == sums[N] / N

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_strong_sarnak_periodic(self, data):
        values, N = data.draw(prefixes())
        spec = data.draw(specs_within(len(values) - N))
        # dyadic weights keep every partial sum exact in float64
        pattern = data.draw(st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.25, 1.0, 1.5]),
                                     min_size=1, max_size=7))
        sums = brute_prefix_sums(values, spec, N, lambda m: pattern[m % len(pattern)])
        curve = strong_sarnak_sum(PeriodicSampler(tuple(pattern)), SignSeq(values), spec, N)
        assert curve.checkpoints[-1][0] == N
        for n, value in curve.checkpoints:
            assert value == sums[n] / n


class TestPairwiseTree:
    """The walk that adds a slice leaf by leaf against np.sum itself: the
    tree must be numpy's own, or some sum differs in its last bits."""

    @pytest.mark.parametrize("node", [128, 136, correlations._PAIRWISE_NODE])
    @pytest.mark.parametrize("n", [*range(1, 9), 127, 128, 129, 136, 1000, 2**16 - 1,
                                   2**16 + 1, 10**6 + 3])
    def test_equals_np_sum_bit_for_bit(self, monkeypatch, node, n):
        rng = np.random.default_rng(n)
        monkeypatch.setattr(correlations, "_PAIRWISE_NODE", node)
        signs = rng.choice([-1.0, -0.0, 0.0, 1.0], n)
        for terms in (
            np.full(n, -0.0),
            signs,
            signs * rng.random(n) * 10.0 ** rng.integers(-12, 13, n),  # mixed magnitudes
            np.cos(np.arange(1, n + 1) * (math.sqrt(2) - 1) * 2 * np.pi),
        ):
            got = _pairwise(0, n, lambda lo, hi: float(np.sum(terms[lo:hi])))
            assert got.hex() == float(np.sum(terms)).hex()


@pytest.fixture(scope="module")
def sqz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("sqz")


class TestCheckpointSlices:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_float_sums_equal_whole_array_reference(self, sqz_dir, data):
        # N < 10 repeats checkpoints; most other N are not multiples of 10
        N = data.draw(st.one_of(st.integers(1, 9), st.integers(10, 3000)), label="N")
        z = random_seq(data.draw(st.integers(0, 2**31), label="seed"), N + 4)
        spec = data.draw(specs_within(4))
        sampler = data.draw(st.one_of(
            st.builds(RotationSampler, st.floats(-10, 10), st.floats(-1, 1),
                      st.sampled_from(["cos", "sin"])),
            st.builds(PeriodicSampler, st.lists(st.floats(-2, 2), min_size=1, max_size=9)),
            st.builds(SubshiftSampler, st.just(random_seq(N, N + 1))),
        ))
        # leaves of the pairwise walk, chunks of the window walk, and the source
        node = data.draw(st.sampled_from([128, 136, correlations._PAIRWISE_NODE]), label="node")
        chunk = data.draw(st.sampled_from([1, 7, 64, seqcore._CHUNK]), label="chunk")
        source = z
        if data.draw(st.booleans(), label="from .sqz"):
            write_sqz(sqz_dir / "z.sqz", z)
            source = _SqzFile(sqz_dir / "z.sqz")
        want = float_bytes(reference_curve(sampler, z, spec, N))
        plain = float_bytes(reference_curve(sampler, z, CorrelationSpec(), N))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(correlations, "_PAIRWISE_NODE", node)
            patch.setattr(seqcore, "_CHUNK", chunk)
            assert float_bytes(strong_sarnak_sum(sampler, source, spec, N).checkpoints) == want
            assert float_bytes(sarnak_sum(sampler, source, N).checkpoints) == plain

    @pytest.mark.parametrize("grid", [101, 977])
    def test_davenport_every_checkpoint_matches_direct_evaluation(self, grid):
        N = 2003
        z = random_seq(12, N)
        res = davenport_scan(z, N, grid)
        assert [b for b, _ in res.curve] == checkpoint_bounds(N)
        n = np.arange(1, N + 1)
        phases = np.exp(2j * np.pi * (np.outer(np.arange(grid), n) % grid) / grid)
        for b, value in res.curve:
            direct = np.abs(phases[:, :b] @ z.values[:b]) / b
            assert abs(value - direct.max()) < 1e-9
        assert abs(direct[round(res.argmax_theta * grid)] - res.max_value) < 1e-9

    @pytest.mark.parametrize("call, bound", [
        (lambda z, N: ch_battery(z, 6, 3, N, 0.1), 2 * 2**22),
        (lambda z, N: chowla_sum(z, CorrelationSpec((1, 2, 3), (1, 2, 1, 1)), N), 2 * 2**22),
        # traced 493,096 and 493,939 bytes (a leaf of at most 2^16 floats;
        # the second carries a letter across chunks in a 2-letter seam, where
        # copying each chunk traced 2,523,482)
        (lambda z, N: sarnak_sum(RotationSampler(alpha=math.sqrt(2) - 1), z, N), 517_750),
        (lambda z, N: strong_sarnak_sum(RotationSampler(alpha=0.3), z,
                                        CorrelationSpec((1,), (1, 1)), N), 518_640),
        (lambda z, N: davenport_scan(z, N, 1000), 2 * 2**22),
    ], ids=["battery-6-3", "chowla-r3", "sarnak-rotation", "strong-sarnak-r1", "davenport"])
    def test_traced_memory_is_a_fraction_of_the_prefix(self, call, bound):
        # each sum holds a chunk's worth of temporaries, at most
        N = 2**22
        assert traced_peak(call, random_seq(13, N + 6), N) < bound


class TestPublishedValues:
    def test_mertens_on_sign_plane(self):
        # M(10^6) = 212 (OEIS A084237)
        m = mobius_prefix(10**6)
        assert chowla_sum(m, CorrelationSpec((), (1,)), 10**6).final == 212 / 10**6

    def test_liouville_on_sign_plane(self):
        # L(10^6) = -530 (OEIS A090410)
        lam = liouville_prefix(10**6)
        assert chowla_sum(lam, CorrelationSpec((), (1,)), 10**6).final == -530 / 10**6

    def test_squarefree_count_on_support_plane(self):
        # Q(10^6) = 607926 squarefree integers up to 10^6 (OEIS A013928)
        m = mobius_prefix(10**6)
        assert chowla_sum(m, CorrelationSpec((), (2,)), 10**6).final == 607926 / 10**6


class TestSamplers:
    def test_rotation_bounded(self):
        vals = RotationSampler(alpha=0.37, x0=0.2).values(0, 1000)
        assert np.all(np.abs(vals) <= 1.0)

    @pytest.mark.parametrize("x0, observable, fn", [(0.0, "cos", np.cos), (0.3, "sin", np.sin)])
    def test_rotation_matches_formula(self, x0, observable, fn):
        n = np.arange(1, 5001, dtype=np.float64)
        want = fn(2.0 * np.pi * np.mod(x0 + n * 0.7071, 1.0))
        got = RotationSampler(alpha=0.7071, x0=x0, observable=observable).values(0, 5000)
        assert got.tobytes() == want.tobytes()

    def test_periodic_periodicity(self):
        vals = PeriodicSampler((1.0, -2.0, 0.5)).values(0, 30)
        assert np.allclose(vals[:27], vals[3:])

    def test_subshift_first_coordinate(self):
        w = SignSeq([1, -1, 0, 1, -1])
        # f(T^n x) = w(n+1)
        assert SubshiftSampler(w).values(0, 4).tolist() == [-1.0, 0.0, 1.0, -1.0]

    def test_subshift_needs_extra_term(self):
        with pytest.raises(ValueError, match="N \\+ 1"):
            SubshiftSampler(SignSeq([1, 1])).values(0, 2)


class TestSarnakSum:
    def test_zero_sequence(self):
        z = SignSeq(np.zeros(1000, dtype=np.int8))
        curve = sarnak_sum(RotationSampler(alpha=0.3), z, 900)
        assert all(v == 0.0 for _, v in curve.checkpoints)

    def test_linear_in_sampler(self):
        z = random_seq(1, 2000)
        f = PeriodicSampler((1.0, 0.0, -1.0))
        g = PeriodicSampler((0.5, 2.0, 0.0))
        fg = PeriodicSampler((1.5, 2.0, -1.0))
        a = sarnak_sum(f, z, 1500).final
        b = sarnak_sum(g, z, 1500).final
        c = sarnak_sum(fg, z, 1500).final
        assert abs((a + b) - c) < 1e-12

    def test_constant_weight_is_mean(self):
        z = random_seq(2, 1000)
        value = sarnak_sum(PeriodicSampler((1.0,)), z, 1000).final
        assert abs(value - z.values.mean()) < 1e-12


class TestSarnakOnMobius:
    def test_periodic_and_rotation_weights_decay(self):
        m = mobius_prefix(10**6)
        flat = sarnak_sum(PeriodicSampler((1.0,)), m, 10**6).final
        rotated = sarnak_sum(
            RotationSampler(alpha=math.sqrt(2) - 1, observable="cos"), m, 10**6
        ).final
        assert abs(flat) < 0.01
        assert abs(rotated) < 0.01


class TestStrongSarnakSum:
    def test_r_zero_reduces_to_sarnak(self):
        z = random_seq(3, 1000)
        sampler = RotationSampler(alpha=0.27, x0=0.11)
        a = strong_sarnak_sum(sampler, z, CorrelationSpec((), (1,)), 900)
        b = sarnak_sum(sampler, z, 900)
        assert a.checkpoints == b.checkpoints

    @pytest.mark.parametrize("sampler", [
        RotationSampler(alpha=0.27, x0=0.11, observable="sin"),
        PeriodicSampler((1.5, -2.0, 0.0, 0.25, 3.0)),
        SubshiftSampler(random_seq(6, 10_001))], ids=["rotation", "periodic", "subshift"])
    @pytest.mark.parametrize("lags, exponents", [
        ((1,), (2, 1)), ((1, 3), (1, 2, 1)), ((2, 5, 6), (2, 1, 2, 2))])
    def test_checkpoints_equal_the_int8_product_oracle(self, sampler, lags, exponents):
        z, N = random_seq(5, 10_006), 10_000
        want, total, lo = [], 0.0, 0
        for hi in checkpoint_bounds(N):
            product = np.ones(hi - lo, dtype=np.int8)
            for a, i in zip((0,) + lags, exponents):
                product *= z.values[lo + a : hi + a] ** i
            total += float(np.sum(sampler.values(lo, hi) * product, dtype=np.float64))
            want.append((hi, total / hi))
            lo = hi
        curve = strong_sarnak_sum(sampler, z, CorrelationSpec(lags, exponents), N)
        assert curve.checkpoints == tuple(want)

    def test_constant_sampler_reduces_to_chowla(self):
        z = random_seq(4, 1000)
        spec = CorrelationSpec((1, 2), (1, 2, 1))
        a = strong_sarnak_sum(PeriodicSampler((1.0,)), z, spec, 900)
        b = chowla_sum(z, spec, 900)
        assert a.checkpoints == b.checkpoints

    def test_rotation_weighted_product_sequence_decays(self):
        # weighted lag product of a Sturmian-masked coin stays small
        from chowla_lab.seqcore import pointwise_product
        from chowla_lab.symbolicgen import (
            BernoulliParams,
            SturmianParams,
            bernoulli_prefix,
            sturmian_prefix,
        )

        n = 10**6
        eta = sturmian_prefix(SturmianParams(alpha=(3 - math.sqrt(5)) / 2), n + 1)
        u = bernoulli_prefix((-1, 1), BernoulliParams((0.5, 0.5), seed=10), n + 1)
        z = pointwise_product(eta, u)
        sampler = RotationSampler(alpha=math.sqrt(2) - 1, observable="cos")
        value = strong_sarnak_sum(sampler, z, CorrelationSpec((1,), (1, 1)), n).final
        assert abs(value) < 0.02


class TestBattery:
    def test_masked_coin_separation(self):
        x = masked_coin_prefix(seed=9, N=300_005)
        report = ch_battery(x, 4, 2, 300_000, 0.02)
        assert report.ch1_passed
        assert not report.passed
        assert report.witness.exponents == (2, 1) and report.witness.lags == (1,)
        assert abs(report.max_abs - 0.25) < 0.02

    def test_budget_guard(self):
        z = random_seq(5, 100)
        with pytest.raises(ValueError, match="budget"):
            ch_battery(z, 30, 6, 50, 0.1)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -0.5])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            ch_battery(random_seq(5, 100), 3, 1, 50, tol)

    def test_entries_cover_enumeration(self):
        z = random_seq(6, 2000)
        report = ch_battery(z, 3, 1, 1500, 0.5)
        assert [e.spec for e in report.entries] == enumerate_chowla_specs(3, 1)


class TestFiniteEquivalence:
    """The paper's equivalence on a prefix: over its N = len(z) - k + 1
    length-k windows, the battery at max_lag = max_r = k - 1 is the window
    count table moved to the moment basis, and the sign average the hat-test
    compares with, g(B) = count_{z^2}(B^2) / 2^|supp B|, has every battery
    moment 0, as each spec has an exponent 1."""

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.sampled_from([0.0, 1 / 3, 0.8]),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_battery_moments_of_the_window_counts(self, seed, k, zero_density, data):
        size = data.draw(st.integers(10 * k, 400))
        odd = (1 - zero_density) / 2
        z = SignSeq(np.random.default_rng(seed).choice([-1, 0, 1], size=size,
                                                       p=[odd, zero_density, odd]))
        N = size - k + 1
        measure, squared = block_frequencies(z, k), block_frequencies(square_map(z), k)
        blocks = list(product((-1, 0, 1), repeat=k))
        count = {b: measure.count(b) for b in blocks}
        sign_average = {b: Fraction(squared.count([x * x for x in b]), 2 ** np.count_nonzero(b))
                        for b in blocks}
        for entry in ch_battery(z, k - 1, k - 1, N, 0.1).entries:
            shifts = (0,) + entry.spec.lags
            moment = {b: math.prod(b[a] ** i for a, i in zip(shifts, entry.spec.exponents))
                      for b in blocks}
            assert entry.value == sum(count[b] * moment[b] for b in blocks) / N
            assert sum(sign_average[b] * moment[b] for b in blocks) == 0


    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(0, 4),
           st.sampled_from([0.0, 1 / 3, 0.8]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_battery_totals_are_moments_of_the_window_table(self, seed, max_lag, max_r,
                                                           zero_density, data):
        # the int64 running total of every spec equals, as an integer, the
        # sum over the length max_lag + 1 window table of count(B) times
        # prod_j B_j^{e_j}, e_j the spec's exponent at lag j (0 if unused)
        k = max_lag + 1
        N = data.draw(st.integers(max(1, 10 * k - max_lag), 600), label="N")
        odd = (1 - zero_density) / 2
        z = SignSeq(np.random.default_rng(seed).choice([-1, 0, 1], size=N + max_lag,
                                                       p=[odd, zero_density, odd]))
        codes, counts = block_frequencies(z, k)._table(k)
        table = [(code_to_block(c, k).letters, n) for c, n in zip(codes.tolist(), counts.tolist())]
        for entry in ch_battery(z, max_lag, max_r, N, 0.1).entries:
            e = dict(zip((0,) + entry.spec.lags, entry.spec.exponents))
            want = sum(n * math.prod(b[j] ** e.get(j, 0) for j in range(k)) for b, n in table)
            assert int(entry._totals[-1, entry._column]) == want


class TestDavenport:
    def test_zero_sequence(self):
        z = SignSeq(np.zeros(5000, dtype=np.int8))
        res = davenport_scan(z, 5000, 100)
        assert res.max_value == 0.0

    def test_constant_one_peaks_at_zero_frequency(self):
        z = SignSeq(np.ones(5000, dtype=np.int8))
        res = davenport_scan(z, 5000, 100)
        assert abs(res.max_value - 1.0) < 1e-9
        assert res.argmax_theta == 0.0

    def test_matches_direct_evaluation(self):
        z = random_seq(7, 2000)
        grid = 100
        res = davenport_scan(z, 2000, grid)
        n = np.arange(1, 2001)
        direct = np.array([
            abs(np.sum(z.values[:2000] * np.exp(2j * np.pi * n * j / grid))) / 2000
            for j in range(grid)
        ])
        assert abs(res.max_value - direct.max()) < 1e-9
        assert abs(direct[round(res.argmax_theta * grid)] - res.max_value) < 1e-9

    def test_grid_guard(self):
        with pytest.raises(ValueError, match="grid"):
            davenport_scan(random_seq(8, 1000), 1000, 50)

    def test_mobius_decays(self):
        m = mobius_prefix(10**5)
        res = davenport_scan(m, 10**5, 100)
        assert res.max_value < 0.05

    def test_magnitudes_round_one_plus_d_squared_once(self):
        def oracle(x: complex) -> float:  # big * sqrt(1 + d*d), 1 + d*d rounded from its exact value
            big, small = max(abs(x.real), abs(x.imag)), min(abs(x.real), abs(x.imag))
            return big * math.sqrt(float(1 + Fraction(small / big) ** 2)) if big else 0.0

        rng = np.random.default_rng(11)
        z = rng.standard_normal(2000) * np.exp(rng.uniform(-30, 30, 2000)) + 1j * rng.standard_normal(2000)
        # here t + e rounds onto a tie of the last addition: two roundings are an ulp off
        hard = 1 + 1j * float.fromhex("0x1.da57bcb44839bp-4")
        z = np.r_[z, 0j, 3 + 0j, -2j, 2.5 - 2.5j, 7 + 7j, hard, 2.0**40 * hard, -3 * hard]
        assert correlations._magnitudes(z).tolist() == [oracle(x) for x in z.tolist()]


@pytest.mark.parametrize("call, message", [
    (lambda: CorrelationSpec(lags=(1,), exponents=(1, 3)), "exponents must be in {1,2}: (1, 3)"),
    (lambda: RotationSampler(alpha=0.5, observable="tan"), "observable must be cos or sin, got tan"),
    (lambda: PeriodicSampler(()), "pattern must be nonempty"),
    (lambda: ch_battery(random_seq(1, 100), 0, 1, 50, 0.1),
     "need max_lag >= 1 and max_r >= 0, got 0, 1"),
], ids=["spec-exponent-3", "rotation-tan", "periodic-empty", "battery-max-lag-0"])
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
