"""Acceptance criteria, one test per criterion, at the stated scales.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (visible with
``pytest -s`` or in captured output on failure).  Shared large prefixes are
built once per module.  Everything here is deterministic: fixed seeds,
fixed reduction order.
"""

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chowla_lab as cl

from owner_oracle import brute_owner, is_initial, non_initial_density_ok

GOLDEN = (3 - math.sqrt(5)) / 2  # 1/phi^2
LOG2_3 = math.log2(3)
N7 = 10**7


def report_line(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def mobius7():
    return cl.mobius_prefix(N7 + 5)


@pytest.fixture(scope="module")
def pr2_sequence():
    eta = cl.sturmian_prefix(cl.SturmianParams(alpha=GOLDEN), N7)
    u = cl.bernoulli_prefix((-1, 1), cl.BernoulliParams((0.5, 0.5), seed=11), N7)
    return cl.pointwise_product(eta, u)


@pytest.fixture(scope="module")
def pr5_sequence():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        eta = cl.sturmian_prefix(cl.SturmianParams(alpha=0.5, beta=0.25), N7)
    u = cl.bernoulli_prefix((-1, 0, 1), cl.BernoulliParams((0.25, 0.5, 0.25), seed=5), N7)
    return cl.pointwise_product(eta, u)


@pytest.fixture(scope="module")
def coded_sequence():
    return cl.pair_code_prefix(2, seed=42, N=N7 + 1)


def test_criterion_01_squarefree_density():
    t0 = time.perf_counter()
    mu = cl.mobius_prefix(N7)
    elapsed = time.perf_counter() - t0
    density = np.count_nonzero(mu.values) / N7
    target = 6 / math.pi**2
    ok = abs(density - target) < 2e-3 and elapsed <= 10.0
    assert report_line(
        1, ok, f"squarefree density {density:.6f} vs {target:.6f}, sieve {elapsed:.2f}s"
    )


def test_criterion_02_mobius_autocorrelations(mobius7):
    t0 = time.perf_counter()
    values = {
        a: cl.chowla_sum(mobius7, cl.CorrelationSpec((a,), (1, 1)), N7).final
        for a in range(1, 6)
    }
    elapsed = time.perf_counter() - t0
    worst = max(abs(v) for v in values.values())
    ok = worst < 0.01 and elapsed <= 5.0
    assert report_line(
        2, ok, f"max |corr| over lags 1..5 = {worst:.5f} (consistency check), {elapsed:.2f}s"
    )


def test_criterion_03_pair_code_lag_one(coded_sequence):
    value = cl.chowla_sum(coded_sequence, cl.CorrelationSpec((1,), (1, 1)), N7).final
    ok = abs(value - 1 / 64) < 0.002
    assert report_line(3, ok, f"coded lag-1 correlation {value:.6f} vs 1/64 = {1/64:.6f}")


def test_criterion_04_masked_coin_battery():
    x = cl.masked_coin_prefix(seed=7, N=N7 + 5)
    battery = cl.ch_battery(x, max_lag=4, max_r=2, N=N7, tol=0.01)
    witness_ok = (
        battery.witness.lags == (1,)
        and battery.witness.exponents == (2, 1)
        and abs(battery.max_abs - 0.25) < 0.01
    )
    ok = battery.ch1_passed and not battery.passed and witness_ok
    assert report_line(
        4,
        ok,
        f"plain-exponent family passes ({battery.ch1_max_abs:.5f}), full battery "
        f"fails at {battery.witness.label()} = {battery.max_abs:.4f}",
    )


def test_criterion_05_sturmian_exactness():
    eta = cl.sturmian_prefix(cl.SturmianParams(alpha=GOLDEN), 10**6)
    profile = cl.complexity_profile(eta, 100)
    complexity_ok = profile.counts.tolist() == [n + 1 for n in range(1, 101)]
    ones = np.concatenate([[0], np.cumsum(eta.values, dtype=np.int64)])
    counts = ones[50:] - ones[:-50]
    window_ok = counts.min() > 50 * GOLDEN - 3 and counts.max() < 50 * GOLDEN + 3
    ok = complexity_ok and window_ok
    assert report_line(
        5,
        ok,
        f"p_n = n+1 for n <= 100: {complexity_ok}; 50-block ones in "
        f"({50*GOLDEN-3:.2f}, {50*GOLDEN+3:.2f}): [{counts.min()}, {counts.max()}]",
    )


def test_criterion_06_sign_extension_separation(pr2_sequence, coded_sequence):
    good = cl.sign_extension_test(pr2_sequence, k=8, tol=0.01)
    bad = cl.sign_extension_test(coded_sequence.prefix(N7), k=8, tol=0.01)
    ok = good.passed and not bad.passed and any(len(b) == 2 for b, _ in bad.violations)
    assert report_line(
        6,
        ok,
        f"product sequence max deviation {good.max_violation:.5f} (pass); coded "
        f"max deviation {bad.max_violation:.5f}, witness {bad.witness.letters}",
    )


def test_criterion_07_entropy_realization(pr5_sequence):
    z = pr5_sequence
    z2 = cl.square_map(z)
    profile_z = cl.complexity_profile(z, 15)
    profile_z2 = cl.complexity_profile(z2, 15)
    est_z = cl.entropy_estimate(profile_z, 10, 14)
    est_z2 = cl.entropy_estimate(profile_z2, 10, 14)
    ranges_ok = 0.35 <= est_z2.value <= 0.65 and 0.54 <= est_z.value <= 1.04
    delta = 0.5
    upper_ok = all(
        profile_z.p(n) < profile_z2.p(n) * 2 ** (delta * n + 3) for n in range(1, 16)
    )
    lower_ok = all(
        profile_z.p(n) > 0.5 * profile_z2.p(n) * 2 ** (delta * n - 3)
        for n in range(1, 16)
    )
    ok = ranges_ok and upper_ok and lower_ok
    assert report_line(
        7,
        ok,
        f"estimates (square {est_z2.value:.3f}, full {est_z.value:.3f}) vs "
        f"(0.5, {0.5*LOG2_3:.3f}); count inequality upper={upper_ok} lower={lower_ok}",
    )


def test_criterion_08_partition_and_density():
    oks = []
    for q in (2, 3, 5, 10):
        table = cl.classify_initials(q, 10**6)
        owner = table[1:]
        n = np.arange(1, 10**6 + 1, dtype=np.int64)
        initial_owner = is_initial(table)[owner - 1].all()
        congruent = True
        for j in np.unique(owner[owner != n]):
            members = n[owner == j]
            if ((members - j) % q ** int(j) != 0).any() or (members < j).any():
                congruent = False
        # independent small-scale oracle
        oracle_ok = {m: int(table[m]) for m in range(1, 10**4 + 1)} == brute_owner(q, 10**4)
        oks.append(
            bool(initial_owner)
            and congruent
            and oracle_ok
            and non_initial_density_ok(table, q)
        )
    ok = all(oks)
    assert report_line(
        8, ok, f"q in (2,3,5,10): partition verified, density <= 1/(q-1) exact: {oks}"
    )


def test_criterion_09_toeplitz_correlation(mobius7):
    cb = cl.toeplitz_correlation(mobius7, 5, 10**6)
    threshold = 6 / math.pi**2 - 0.5 - 0.01
    ok = cb.value >= threshold and cb.holds
    assert report_line(
        9,
        ok,
        f"correlation {cb.value:.4f} >= {threshold:.4f}; finite-N inequality "
        f"{cb.value:.4f} >= {cb.lower_bound:.4f}",
    )


def test_criterion_10_interval_analytics():
    rep = cl.interval_analytics(3, m=4, ell=2, K=1000)
    ok = (
        rep.type1_fraction == 4 / 9
        and rep.type1_counts_equal
        and rep.masks_identical
        and rep.good_count == 1000
    )
    assert report_line(
        10,
        ok,
        f"type-1 proportion {rep.type1_fraction:.4f} = 4/9 exactly, masks identical "
        f"over {rep.good_count} good intervals",
    )


def test_criterion_11_toeplitz_entropy_positive(mobius7):
    rep = cl.toeplitz_entropy_lower_bound(mobius7, 5, m=4, ell=2, K=10**4)
    ok = rep.estimate > 0.2
    assert report_line(
        11,
        ok,
        f"entropy lower bound {rep.estimate:.4f} > 0.2 "
        f"({rep.distinct_blocks} distinct length-{rep.L} blocks)",
    )


def test_criterion_12_appendix_functions():
    checks = [
        cl.binary_entropy(0.5) == 1.0,
        abs(cl.full_entropy_lower(1.0) - 1.5) < 1e-12,
        cl.full_entropy_upper(1.0) == LOG2_3,
        abs(cl.full_entropy_upper(cl.entbounds.H_TWO_THIRDS - 1e-12) - LOG2_3) < 1e-9,
    ]
    round_trip = max(
        abs(cl.binary_entropy(cl.entropy_inverse(float(y), branch)) - y)
        for y in np.linspace(0.0, 1.0, 1001)
        for branch in ("lower", "upper")
    )
    checks.append(round_trip < 1e-10)
    identity = max(
        abs(cl.sign_extension_entropy(float(d))[1] - (cl.binary_entropy(float(d)) + d))
        for d in np.linspace(0.0, 1.0, 1001)
    )
    checks.append(identity < 1e-12)
    ok = all(checks)
    assert report_line(
        12,
        ok,
        f"H(1/2)=1, curve endpoints, junction continuity, round-trip {round_trip:.1e}, "
        f"extension identity {identity:.1e}",
    )


@given(st.data())
@settings(max_examples=50, deadline=None, print_blob=False)
def _recoding_bounds_hold(data):
    kind = data.draw(st.sampled_from(["iid", "periodic", "sturmian", "blocky", "constant"]))
    seed = data.draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    length = data.draw(st.integers(300, 3000))
    if kind == "iid":
        vals = rng.integers(-1, 2, size=length)
    elif kind == "periodic":
        vals = np.resize(rng.integers(-1, 2, size=int(rng.integers(1, 8))), length)
    elif kind == "sturmian":
        vals = (np.mod(np.arange(1, length + 1) * GOLDEN, 1.0) >= 1 - GOLDEN).astype(np.int8)
    elif kind == "blocky":
        vals = np.repeat(rng.integers(-1, 2, size=max(1, length // 40)), 40)[:length]
    else:
        vals = np.full(length, rng.integers(-1, 2))
    u = cl.SignSeq(vals)
    n_block = data.draw(st.sampled_from([2, 4, 5, 10, 20]))
    big_n = n_block * data.draw(st.integers(2, max(2, length // (3 * n_block))))
    if big_n > length:
        return
    eps = data.draw(st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5]))
    params = cl.DeterminizeParams(epsilon=eps, n_block=n_block, big_n=big_n)
    res = cl.determinize_step(u, params)
    assert res.distinct_block_count < res.distinct_block_bound(params)
    assert res.changed_fraction < eps + res.unacceptable_fraction + 1e-12


def test_criterion_13_determinize_bounds():
    _recoding_bounds_hold()
    # structured corner cases at fixed parameters
    const = cl.SignSeq(np.ones(10**4, dtype=np.int8))
    res = cl.determinize_step(const, cl.DeterminizeParams(0.2, 10, 100))
    corner_ok = res.distinct_block_count == 1 and res.changed_fraction == 0.0
    assert report_line(
        13,
        corner_ok,
        "distinct-block and changed-fraction bounds hold on random and structured "
        "inputs (property-based, 50 cases)",
    )


def test_criterion_14_davenport_decay(mobius7):
    res = cl.davenport_scan(mobius7.prefix(10**6), 10**6, 1000)
    max_ok = res.max_value < 0.02
    values = [v for _, v in res.curve]
    decay_ok = all(b <= 1.2 * a for a, b in zip(values, values[1:]))
    ok = max_ok and decay_ok
    assert report_line(
        14,
        ok,
        f"grid max {res.max_value:.5f} < 0.02 at N=1e6; checkpoint curve decreasing "
        f"within 20% slack: {decay_ok}",
    )
