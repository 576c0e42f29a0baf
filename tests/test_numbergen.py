"""Arithmetic generators against independent factorization oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chowla_lab import numbergen
from chowla_lab.numbergen import (
    BSet,
    admissible_block_count,
    is_admissible,
    liouville_prefix,
    mobius_prefix,
    mu_b_prefix,
)
from chowla_lab.seqcore import square_map

from summatory_oracle import summatory
from factorize_oracle import factorize
from traced_memory import traced_peak


def is_prime(n: int) -> bool:
    return factorize(n) == [(n, 1)]


def prime_squares(limit: int) -> BSet:
    """{p**2 : p prime <= limit}: mu_b over it is mu up to N = limit."""
    primes = [p for p in range(2, limit + 1) if is_prime(p)]
    return BSet(tuple(p * p for p in primes), tuple(primes))


def mobius_oracle(n: int) -> int:
    fac = factorize(n)
    if any(e >= 2 for _, e in fac):
        return 0
    return (-1) ** len(fac)


def big_omega_oracle(n: int) -> int:
    return sum(e for _, e in factorize(n))


class TestMobius:
    def test_against_factorization_oracle(self):
        mu = mobius_prefix(2000)
        for n in range(1, 2001):
            assert mu[n] == mobius_oracle(n), n

    def test_first_six(self):
        assert mobius_prefix(6).values.tolist() == [1, -1, -1, 0, -1, 1]

    def test_primes_map_to_minus_one(self):
        mu = mobius_prefix(500)
        for p in (2, 3, 5, 7, 11, 13, 499):
            assert mu[p] == -1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            mobius_prefix(0)

    def test_squarefree_density(self):
        N = 10**6
        mu = mobius_prefix(N)
        density = np.count_nonzero(mu.values) / N
        assert abs(density - 6 / math.pi**2) < 2e-3


class TestLiouville:
    def test_against_factorization_oracle(self):
        lam = liouville_prefix(2000)
        for n in range(1, 2001):
            assert lam[n] == (-1) ** big_omega_oracle(n), n

    def test_first_eight(self):
        assert liouville_prefix(8).values.tolist() == [1, -1, -1, 1, -1, 1, -1, -1]

    def test_prime_power_parity(self):
        assert liouville_prefix(4)[4] == 1  # Omega(4) = 2

    def test_agrees_with_mobius_on_squarefree(self):
        N = 10**5
        mu = mobius_prefix(N).values
        lam = liouville_prefix(N).values
        mask = mu != 0
        assert np.array_equal(lam[mask], mu[mask])

    def test_mobius_factors_as_liouville_times_square(self):
        assert_mu_is_lambda_times_square(10**5)


def assert_mu_is_lambda_times_square(N):
    mu = mobius_prefix(N)
    lam = liouville_prefix(N)
    assert np.array_equal(mu.values, lam.values * square_map(mu).values)


SMALL_SEGMENTS = [1, 2, 3, 7, 64]


@pytest.fixture(scope="module")
def oracles():
    n = range(1, 2001)
    return (np.array([mobius_oracle(k) for k in n]),
            np.array([(-1) ** big_omega_oracle(k) for k in n]))


class TestSegments:
    """Segment edges: the same prefixes from segments of a few terms."""

    @pytest.mark.parametrize("segment", SMALL_SEGMENTS)
    def test_against_factorization_oracles(self, monkeypatch, oracles, segment):
        monkeypatch.setattr(numbergen, "_SEGMENT", segment)
        mu, lam = oracles
        assert np.array_equal(mobius_prefix(2000).values, mu)
        assert np.array_equal(liouville_prefix(2000).values, lam)
        # each N sieves its own primes up to sqrt(N): the set changes at p**2
        edges = {p * p + d for p in (2, 3, 5, 7, 11, 13, 17) for d in (-1, 0, 1)}
        for N in sorted(edges | set(range(1, 50))):
            assert np.array_equal(mobius_prefix(N).values, mu[:N]), N
            assert np.array_equal(liouville_prefix(N).values, lam[:N]), N

    @pytest.mark.parametrize("N,segment", [(4096, s) for s in SMALL_SEGMENTS] + [(65537, 64)])
    def test_against_whole_array_mu_b(self, monkeypatch, N, segment):
        # 4096 = 2^12 is a prime power on a segment edge; 65537 is prime
        expected = mu_b_prefix(prime_squares(N), N)
        monkeypatch.setattr(numbergen, "_SEGMENT", segment)
        assert mobius_prefix(N) == expected

    @pytest.mark.parametrize("segment", SMALL_SEGMENTS)
    def test_large_prime_threshold(self, monkeypatch, oracles, segment):
        # one prime above sqrt(N) flips the sign where acc < 5*floor(log2 n),
        # a threshold compared once per dyadic piece of a segment
        monkeypatch.setattr(numbergen, "_SEGMENT", segment)
        mu, lam = oracles
        for N in sorted({2**k + d for k in range(1, 11) for d in (-1, 0, 1)}):
            assert np.array_equal(mobius_prefix(N).values, mu[:N]), N
            assert np.array_equal(liouville_prefix(N).values, lam[:N]), N
        # n = p*r with r the least prime above isqrt(N) has the most sieved
        # weight beside a large prime; 3**a and 2**a * 3**b fall furthest
        # below the threshold's floor(log2 n) with no large prime
        for s in (3, 5, 10, 22, 44):
            N = (s + 1) ** 2 - 1  # isqrt(N) = s
            r = next(r for r in itertools.count(s + 1) if is_prime(r))
            cases = [p * r for p in range(2, N // r + 1) if is_prime(p)]
            cases += [2**a * 3**b for a in range(11) for b in range(7) if 2**a * 3**b <= N]
            mu_N, lam_N = mobius_prefix(N), liouville_prefix(N)
            for n in cases:
                assert mu_N[n] == mobius_oracle(n), (N, n)
                assert lam_N[n] == (-1) ** big_omega_oracle(n), (N, n)

    def test_mobius_factors_as_liouville_times_square(self, monkeypatch):
        monkeypatch.setattr(numbergen, "_SEGMENT", 1000)
        assert_mu_is_lambda_times_square(10**5)

    @pytest.mark.parametrize("sieve", [mobius_prefix, liouville_prefix])
    def test_peak_memory_is_output_plus_segments(self, sieve):
        # numpy reports its buffers to tracemalloc; the whole-array sieves
        # traced about 18 bytes per symbol, the uint8 accumulator about
        # N + 2 * _SEGMENT
        N = 1 << 23
        assert traced_peak(sieve, N) < N + 4 * numbergen._SEGMENT


class TestSummatoryOracle:
    """The sieve-free M(x) and L(x) of ``summatory_oracle``."""

    def test_small_x_against_factorization_oracles(self, oracles):
        mu, lam = (np.cumsum(o) for o in oracles)
        for x in range(1, 2001):
            assert summatory(x) == (mu[x - 1], lam[x - 1]), x

    @pytest.mark.parametrize("x,M,L", [(10**9, -222, -25216), (10**10, -33722, -116026)])
    def test_published_values(self, x, M, L):
        # OEIS A084237 (Mertens) and A090410 (Liouville) at 10^9 and 10^10
        assert summatory(x) == (M, L)

    @pytest.mark.parametrize("x,M,L", [(10**6, 212, -530), (10**7, 1037, -842),
                                       (10**8, 1928, -3884)])
    def test_sieve_prefix_sums(self, x, M, L):
        assert summatory(x) == (M, L)
        assert mobius_prefix(x).values.sum(dtype=np.int64) == M
        assert liouville_prefix(x).values.sum(dtype=np.int64) == L


class TestBSet:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="perfect square"):
            BSet.from_squares([4, 8])

    def test_rejects_non_coprime_roots(self):
        with pytest.raises(ValueError, match="not coprime"):
            BSet.from_squares([4, 16])


class TestMuB:
    def test_prime_squares_reproduce_mobius(self):
        N = 10**5
        assert mu_b_prefix(prime_squares(N), N) == mobius_prefix(N)

    def test_single_square_values(self):
        mb = mu_b_prefix(BSet.from_squares([4]), 6)
        assert mb[2] == -1 and mb[3] == 1 and mb[4] == 0 and mb[6] == -1

    def test_squared_density_by_inclusion_exclusion(self):
        # oracle: #{n <= N : 4 does not divide n, 9 does not divide n}
        N = 10**6
        mb = mu_b_prefix(BSet.from_squares([4, 9]), N)
        exact = N - N // 4 - N // 9 + N // 36
        assert np.count_nonzero(mb.values) == exact
        assert abs(exact / N - 2 / 3) < 1e-3

    def test_density_matches_product_formula(self):
        N = 3 * 10**5
        for squares in ([4], [9, 25], [4, 9, 25]):
            mb = mu_b_prefix(BSet.from_squares(squares), N)
            target = math.prod(1 - 1 / b for b in squares)
            assert abs(np.count_nonzero(mb.values) / N - target) < 2e-3


class TestAdmissibility:
    def test_full_support_blocked(self):
        assert not is_admissible([1, 1, 1, 1], BSet.from_squares([4]))

    def test_two_classes_fine(self):
        assert is_admissible([1, 0, 0, 1], BSet.from_squares([4]))

    def test_rejects_sign_letters(self):
        with pytest.raises(ValueError):
            is_admissible([1, -1], BSet.from_squares([4]))

    @pytest.mark.parametrize("letters", [[0.9, 1, 1, 1], [257, 1, 1, 1]],
                             ids=["truncates-to-0", "overflows-int8"])
    def test_rejects_letters_the_int8_cast_would_change(self, letters):
        # the cast made [0.9, 1, 1, 1] the admissible (0, 1, 1, 1)
        with pytest.raises(ValueError, match="out of alphabet"):
            is_admissible(letters, BSet.from_squares([4]))

    def test_mobius_square_blocks_admissible(self):
        # admissibility of squarefree-indicator windows is forced by definition
        sq = square_map(mobius_prefix(10**6)).values
        bset = BSet.from_squares([4, 9])  # the prime squares <= 20
        rng = np.random.default_rng(1)
        for start in rng.integers(0, 10**6 - 20, size=200):
            assert is_admissible(sq[start : start + 20], bset)

    @given(st.data())
    @settings(max_examples=100)
    def test_hereditary(self, data):
        # removing 1s from the support never breaks admissibility
        n = data.draw(st.integers(2, 16))
        letters = np.array(data.draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)))
        squares = data.draw(st.sampled_from([[4], [9], [4, 9], [4, 25]]))
        bset = BSet.from_squares(squares)
        if not is_admissible(letters, bset):
            return
        ones = np.flatnonzero(letters)
        if ones.size:
            drop = data.draw(st.sampled_from(list(ones)))
            letters[drop] = 0
        assert is_admissible(letters, bset)


def brute_count(n, bset):
    total = 0
    for mask in range(2**n):
        letters = [(mask >> i) & 1 for i in range(n)]
        total += is_admissible(letters, bset)
    return total


class TestAdmissibleCount:
    def test_vacuous_constraints(self):
        assert admissible_block_count(3, BSet.from_squares([4])) == 8

    def test_length_four_mod_four(self):
        bset = BSet.from_squares([4])
        assert admissible_block_count(4, bset) == 15 == brute_count(4, bset)

    @pytest.mark.parametrize("squares", [[4], [9], [4, 9]])
    def test_matches_brute_force(self, squares):
        bset = BSet.from_squares(squares)
        for n in range(1, 13):
            assert admissible_block_count(n, bset) == brute_count(n, bset)

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            admissible_block_count(31, BSet.from_squares([4]))

    def test_entropy_slope_nearly_non_increasing(self):
        bset = BSet.from_squares([4, 9, 25])
        slopes = [
            math.log2(admissible_block_count(n, bset)) / n for n in range(8, 25)
        ]
        for a, b in zip(slopes, slopes[1:]):
            assert b <= a + 0.02
