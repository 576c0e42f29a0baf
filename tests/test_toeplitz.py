"""Progression partition, Toeplitz building, interval analytics, entropy bound."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chowla_lab.numbergen import mobius_prefix
from chowla_lab.seqcore import SignSeq
from chowla_lab.toeplitz import (
    CLASSIFY_LIMIT,
    build_toeplitz,
    classify_initials,
    interval_analytics,
    toeplitz_correlation,
    toeplitz_entropy_lower_bound,
)

from owner_oracle import brute_owner, is_initial, non_initial_density_ok
from traced_memory import traced_peak


def random_ref(seed, size):
    return SignSeq(np.random.default_rng(seed).integers(-1, 2, size=size))


def brute_tails(q, m, ell, K):
    """Per interval index k: whether k is good, the non-initial offsets of
    its tail and the tail positions, recomputed from the set-based owner
    oracle."""
    owner = brute_owner(q, K * q**m)
    tails = []
    for k in range(1, K + 1):
        tail = range(k * q**m - q**ell + 1, k * q**m + 1)
        good = not any(owner[n] != n and owner[n] > m for n in tail)
        tails.append((good, tuple(i for i, n in enumerate(tail) if owner[n] != n), tail))
    return owner, tails


# (q, m, ell) with q^ell <= 40 and K * q^m small enough for the set oracle;
# type-2 positions (non-good k) occur only where q^m is small
TAIL_PARAMS = [(q, m, ell) for q in (2, 3, 4) for m in range(2, 6) for ell in range(1, m)
               if q**ell <= 40 and q**m <= 256]


class TestClassifyInitials:
    def test_hand_example_q3(self):
        owner = classify_initials(3, 10)
        initials = [n for n in range(1, 11) if owner[n] == n]
        assert initials == [1, 2, 3, 5, 6, 8, 9]
        assert {n: int(owner[n]) for n in (4, 7, 10)} == {4: 1, 7: 1, 10: 1}

    def test_hand_example_q2(self):
        owner = classify_initials(2, 6)
        non_initials = {n: int(owner[n]) for n in range(1, 7) if owner[n] != n}
        assert non_initials == {3: 1, 5: 1, 6: 2}

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_matches_brute_oracle(self, q):
        N = 3000
        table = classify_initials(q, N)
        oracle = brute_owner(q, N)
        assert {n: int(table[n]) for n in range(1, N + 1)} == oracle

    @pytest.mark.parametrize("q", [2, 3, 5, 10])
    def test_partition_and_density(self, q):
        N = 10**5
        table = classify_initials(q, N)
        owner = table[1:]
        n = np.arange(1, N + 1, dtype=np.int64)
        # every position owned by an initial j with the right congruence
        assert table[0] == 0 and not table.flags.writeable
        assert np.all(owner >= 1)
        assert np.all(is_initial(table)[owner - 1])
        non_init = owner != n
        step = np.ones(N, dtype=np.int64)
        for j in np.unique(owner[non_init]):
            members = n[owner == j]
            assert np.all((members - j) % q**j == 0)
            assert np.all(members >= j)
        # exact density bound at every prefix
        assert non_initial_density_ok(table, q)

    def test_density_fails_on_an_early_prefix(self):
        # positions 2 and 3 non-initial: 2 of the first 3 exceeds 1/(q-1) = 1/2,
        # although 2 of all 10 does not
        owner = np.arange(11, dtype=np.int64)
        owner[2:4] = 1
        assert not non_initial_density_ok(owner, 3)
        owner[3] = 3
        assert non_initial_density_ok(owner, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            classify_initials(1, 10)


@pytest.mark.parametrize("q", [1, 0, -2])
@pytest.mark.parametrize("call", [
    lambda q: classify_initials(q, 10),
    lambda q: build_toeplitz(random_ref(0, 100), q, 100),
    lambda q: toeplitz_correlation(random_ref(0, 100), q, 100),
    lambda q: interval_analytics(q, 4, 2, 10),
    lambda q: toeplitz_entropy_lower_bound(random_ref(0, 1000), q, 4, 2, 10),
], ids=["classify_initials", "build_toeplitz", "toeplitz_correlation", "interval_analytics",
        "toeplitz_entropy_lower_bound"])
def test_every_function_refuses_q_below_2(call, q):
    with pytest.raises(ValueError, match=f"^q must be >= 2, got {q}$"):
        call(q)


class TestBuildToeplitz:
    def test_initial_positions_copy_reference(self):
        ref = SignSeq(np.random.default_rng(0).integers(-1, 2, size=2000))
        table = classify_initials(3, 2000)
        t = build_toeplitz(ref, 3, 2000)
        initial = is_initial(table)
        assert np.array_equal(t.values[initial], ref.values[:2000][initial])

    def test_q3_copies_first_term(self):
        ref = SignSeq(np.random.default_rng(1).integers(-1, 2, size=100))
        t = build_toeplitz(ref, 3, 100)
        assert t[4] == t[7] == t[10] == ref[1]

    def test_periodic_recurrence(self):
        # t(n) recurs along its owner progression with period q^owner
        q = 3
        N = 30_000
        ref = SignSeq(np.random.default_rng(2).integers(-1, 2, size=N))
        table = classify_initials(q, N)
        t = build_toeplitz(ref, q, N)
        for n in range(1, 1001):
            j = int(table[n])
            period = q**j
            for k in range(1, 6):
                if n + k * period > N:
                    break
                assert t[n + k * period] == t[n], (n, j, k)

    def test_reference_too_short(self):
        with pytest.raises(ValueError, match="reference length"):
            build_toeplitz(SignSeq([1, 0]), 2, 5)

    @given(st.integers(2, 10), st.integers(1, 3000), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_owner(self, q, N, seed):
        ref = random_ref(seed, N + 3)
        t = build_toeplitz(ref, q, N)
        owner = brute_owner(q, N)
        assert t.values.tolist() == [ref[owner[n]] for n in range(1, N + 1)]


class TestToeplitzCorrelation:
    def test_zero_reference(self):
        ref = SignSeq(np.zeros(1000, dtype=np.int8))
        cb = toeplitz_correlation(ref, 5, 1000)
        assert cb.value == 0.0
        assert cb.lower_bound == -2.0 / 4

    def test_full_support_reference(self):
        values = np.random.default_rng(3).integers(0, 2, size=20_000) * 2 - 1
        cb = toeplitz_correlation(SignSeq(values), 10, 20_000)
        assert cb.value >= 1 - 2 / 9
        assert cb.holds

    def test_inequality_exact_on_random_sparse(self):
        for seed in range(5):
            ref = SignSeq(np.random.default_rng(seed).integers(-1, 2, size=5000))
            cb = toeplitz_correlation(ref, 4, 5000)
            assert cb.holds

    @given(st.integers(2, 7), st.integers(1, 3000), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_matches_sum_over_built_sequence(self, q, N, seed):
        ref = random_ref(seed, N + 3)
        t = build_toeplitz(ref, q, N).values
        want = float(np.sum(t * ref.values[:N], dtype=np.float64)) / N
        assert toeplitz_correlation(ref, q, N).value.hex() == want.hex()

    def test_never_builds_the_sequence(self):
        # t one chunk of at most 2^18 terms at a time; building all of t held N bytes
        N = 2**22
        assert traced_peak(toeplitz_correlation, random_ref(4, N), 2, N) < 2**20


class TestIntervalAnalytics:
    def test_exact_density_q3(self):
        rep = interval_analytics(3, m=4, ell=2, K=1000)
        assert rep.good_count == 1000
        assert rep.type1_count_observed == rep.type1_count_expected == 4
        assert rep.type1_fraction == 4 / 9
        assert rep.type1_counts_equal
        assert rep.masks_identical

    def test_q2_small_m(self):
        rep = interval_analytics(2, m=3, ell=1, K=500)
        # expected type-1 count: L * (1/q) = 1 of the last 2 positions
        assert rep.type1_count_expected == 1
        if rep.good_count:
            assert rep.type1_counts_equal

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="ell < m"):
            interval_analytics(3, m=2, ell=2, K=10)

    # q^m - m - q^ell >= 0 for q >= 2 and 1 <= ell < m, so the bound can
    # underflow to 0.0 but not overflow; 0 is reached at q 2, m 2, ell 1
    @pytest.mark.parametrize("q, m, ell, K, bound", [
        (2, 2, 1, 3, 1.0), (2, 4, 1, 3, 2.0**-10), (5, 26, 2, 1, 0.0),
    ])
    def test_non_good_bound(self, q, m, ell, K, bound):
        rep = interval_analytics(q, m, ell, K)
        assert rep.non_good_bound == float(q) ** -(q**m - m - q**ell) == bound

    def test_deep_progressions_hit_every_qh_th_interval_once(self):
        # A_j* for initial j = m+h meets every q^h-th interval, one point each
        q, m, K = 2, 3, 200
        qm = q**m
        table = classify_initials(q, K * qm)
        n = np.arange(1, K * qm + 1, dtype=np.int64)
        owner = table[1:]
        for j in (4, 5):  # initial for q=2 (3 is non-initial)
            members = n[(owner == j) & (n != j)]
            intervals = (members - 1) // qm
            assert np.all(np.diff(intervals) == q ** (j - m))
            assert np.unique(intervals).size == intervals.size

    def test_no_owner_table(self):
        # an owner table over K*q^m = 19,683,000 positions would be 158 MB
        q, m, ell, K = 3, 8, 2, 3000
        ref = random_ref(4, K * q**m)
        tracemalloc.start()
        try:
            interval_analytics(q, m, ell, K)
            analytics_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            toeplitz_entropy_lower_bound(ref, q, m, ell, K)
            entropy_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert analytics_peak < 2**20
        assert entropy_peak < 2**20

    @pytest.mark.parametrize("q, m, ell", TAIL_PARAMS)
    @given(st.integers(1, 50), st.integers(0, 2**31))
    @settings(max_examples=4, deadline=None)
    def test_matches_brute_owner(self, q, m, ell, K, seed):
        ref = random_ref(seed, K * q**m)
        owner, tails = brute_tails(q, m, ell, K)
        good = [(mask, tail) for is_good, mask, tail in tails if is_good]
        rep = interval_analytics(q, m, ell, K)
        assert rep.good_count == len(good)
        assert rep.type1_mask == (good[0][0] if good else ())
        # the oracle carries the checks masks_identical and type1_counts_equal
        # can no longer fail: every good tail has the reported mask
        assert all(mask == rep.type1_mask for mask, _ in good)
        if good:
            assert rep.type1_count_expected == rep.type1_count_observed
        bound = toeplitz_entropy_lower_bound(ref, q, m, ell, K)
        assert bound.good_count == len(good)
        blocks = {tuple(ref[owner[n]] for n in tail) for _, tail in good}
        assert bound.distinct_blocks == len(blocks)


class TestEntropyLowerBound:
    def test_zero_reference_gives_zero(self):
        N = 100 * 3**4
        ref = SignSeq(np.zeros(N, dtype=np.int8))
        rep = toeplitz_entropy_lower_bound(ref, 3, 4, 2, 100)
        assert rep.distinct_blocks == 1
        assert rep.estimate == 0.0

    def test_mobius_reference_positive(self):
        K = 500
        ref = mobius_prefix(K * 5**4)
        rep = toeplitz_entropy_lower_bound(ref, 5, 4, 2, K)
        assert rep.L == 25
        assert rep.estimate > 0.2

    @pytest.mark.parametrize("seed", [0, 1])
    def test_forty_letter_tails(self, seed):
        # L = q^ell = 40, the longest tail, which TAIL_PARAMS never reaches:
        # each interval of the reference is one of four 1,600-letter blocks,
        # a random one, copies of it with the last or the second tail letter
        # changed, and another random one, so tails repeat and some differ
        # only next to an end of the row
        q, m, ell, K = 40, 2, 1, 6
        rng = np.random.default_rng(seed)
        base = rng.integers(-1, 2, size=q**m)
        blocks = [base, base.copy(), base.copy(), rng.integers(-1, 2, size=q**m)]
        for block, i in ((blocks[1], q**m - 1), (blocks[2], q**m - q**ell + 1)):
            block[i] = (block[i] + 2) % 3 - 1
        ref = SignSeq(np.concatenate([blocks[i] for i in rng.permutation(np.resize(range(4), K))]))
        owner, tails = brute_tails(q, m, ell, K)
        rows = {tuple(ref[owner[n]] for n in tail) for is_good, _, tail in tails if is_good}
        rep = toeplitz_entropy_lower_bound(ref, q, m, ell, K)
        assert rep.L == 40 and rep.good_count == K
        assert rep.distinct_blocks == len(rows) == 4

    def test_reference_length_guard(self):
        with pytest.raises(ValueError, match="reference length"):
            toeplitz_entropy_lower_bound(SignSeq([1]), 5, 4, 2, 10)


def test_classify_initials_refuses_past_its_limit():
    message = f"N = {CLASSIFY_LIMIT + 1} exceeds classification bound {CLASSIFY_LIMIT}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        classify_initials(2, CLASSIFY_LIMIT + 1)
