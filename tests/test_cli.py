"""CLI surface: subcommands, exit codes, report shape, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import chowla_lab
import chowla_lab as cl
from chowla_lab import __version__, cli, correlations, numbergen, seqcore
from chowla_lab.cli import main
from chowla_lab.correlations import RotationSampler, ch_battery, davenport_scan, sarnak_sum
from chowla_lab.empirics import sign_extension_test
from chowla_lab.numbergen import liouville_prefix, mobius_prefix
from chowla_lab.seqcore import SignSeq, read_sqz, write_sqz
from chowla_lab.toeplitz import (
    build_toeplitz,
    toeplitz_correlation,
    toeplitz_entropy_lower_bound,
)

from owner_oracle import brute_owner
from traced_memory import traced_peak


def run(args):
    return main([str(a) for a in args])


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


# The quantity a refusal names, for the cases whose wording is pinned.
ERROR_TEXT = {
    "davenport-n-long": "prefix of length 100000 too short: need N = 1000000",
    "sarnak-n-long": "prefix of length 100000 too short: need N = 1000000",
    "chowla-max-lag-long": "--max-lag 100000 must be below the prefix length 100000",
    "determinize-2^1024": "epsilon*big_n must be < 1024, got 1024.5",
    "sarnak-pattern-overflow": "is not finite",
    "sarnak-pattern-overflow-csv": "is not finite",
    "sarnak-alpha-overflow": "is not finite",
    "mu-b-no-bset": "--bset is required for --kind mu-b",
    "sturmian-no-alpha": "--alpha is required for --kind sturmian",
    "bernoulli-no-probs": "--probs is required for --kind bernoulli",
    "probs-1": "--probs needs 2 or 3 values, got 1",
    "probs-4": "--probs needs 2 or 3 values, got 4",
    "rotation-no-alpha": "--alpha is required for --system rotation",
    "periodic-no-pattern": "--pattern is required for --system periodic",
    "subshift-no-weights": "--weights is required for --system subshift",
    "toeplitz-build-n-0": "N must be >= 1, got 0",
    "toeplitz-build-n-neg": "N must be >= 1, got -3",
    "toeplitz-build-q-1": "q must be >= 2, got 1",
    "toeplitz-build-n-q-1": "q must be >= 2, got 1",
    "toeplitz-analyze-q-1": "q must be >= 2, got 1",
    "toeplitz-analyze-ref-q-1": "q must be >= 2, got 1",
}


@pytest.fixture(scope="module")
def mobius_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("seq") / "m.sqz"
    assert run(["generate", "--kind", "mobius", "--n", 100_000, "--out", path]) == 0
    return path


class TestGenerate:
    def test_file_size_matches_format(self, tmp_path, capsys):
        out = tmp_path / "m.sqz"
        assert run(["generate", "--kind", "mobius", "--n", 10_000, "--out", out]) == 0
        # 4 magic + 8 length + one byte per symbol
        assert out.stat().st_size == 10_000 + 12
        assert "10012 bytes" in capsys.readouterr().out

    def test_round_trips_library_values(self, mobius_file):
        assert read_sqz(mobius_file) == mobius_prefix(100_000)

    @pytest.mark.parametrize(
        "extra",
        [
            ["--kind", "liouville"],
            ["--kind", "mu-b", "--bset", "4,9"],
            ["--kind", "mu-b", "--bset", "prime-squares"],
            ["--kind", "sturmian", "--alpha", "0.381966011"],
            ["--kind", "bernoulli", "--probs", "0.25,0.5,0.25", "--seed", "3"],
            ["--kind", "coded", "--k0", "2", "--seed", "1"],
            ["--kind", "squares-needed", "--seed", "2"],
            ["--kind", "example-aa"],
        ],
    )
    def test_all_kinds_produce_files(self, tmp_path, extra):
        out = tmp_path / "z.sqz"
        assert run(["generate", *extra, "--n", 5000, "--out", out]) == 0
        assert len(read_sqz(out)) == 5000

    @pytest.mark.parametrize("n", [1, 5000])
    def test_mu_b_over_prime_squares_is_mobius(self, tmp_path, n):
        # the sieve serves this set: --n 1 used to exit 2 with "no primes <= 1"
        out = tmp_path / "z.sqz"
        assert run(["generate", "--kind", "mu-b", "--bset", "prime-squares", "--n", n,
                    "--out", out]) == 0
        assert read_sqz(out) == mobius_prefix(n)

    def test_missing_parameter_is_usage_error(self, tmp_path):
        out = tmp_path / "z.sqz"
        assert run(["generate", "--kind", "sturmian", "--n", 100, "--out", out]) == 2


class TestChoiceTables:
    def test_entries_call_generators_by_name(self, mobius_file, tmp_path, monkeypatch,
                                             capsys):
        # perfbench --trace 1 wraps a generator by rebinding its module
        # attribute: a table entry holding the function object would escape it
        calls = []

        def spy(name, real):
            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        # generate --kind mobius streams the sieve's segments, not mobius_prefix,
        # and --kind bernoulli the draws' chunks, not bernoulli_prefix
        for name in ("_sign_sieve", "_bernoulli_chunks", "RotationSampler"):
            monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
        assert run(["generate", "--kind", "mobius", "--n", 100, "--out", tmp_path / "m.sqz"]) == 0
        assert run(["generate", "--kind", "bernoulli", "--probs", "0.5,0.5", "--n", 100,
                    "--out", tmp_path / "b.sqz"]) == 0
        assert run(["sarnak", "--in", mobius_file, "--system", "rotation", "--alpha", 0.5]) == 0
        assert calls == ["_sign_sieve", "_bernoulli_chunks", "RotationSampler"]
        capsys.readouterr()
        with pytest.raises(SystemExit):
            run(["generate", "--help"])
        assert ("--kind {mobius,liouville,mu-b,sturmian,bernoulli,coded,squares-needed,"
                "example-aa}") in capsys.readouterr().out


class TestChowla:
    def test_pass_run_writes_report(self, mobius_file, tmp_path):
        report_path = tmp_path / "report.json"
        code = run([
            "chowla", "--in", mobius_file, "--max-lag", 3, "--max-r", 1,
            "--tol", 0.02, "--out-report", report_path,
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["schema"] == 1
        assert report["version"] == __version__
        assert report["verdict"] == "pass"
        assert report["results"]["ch1_passed"] is True
        assert len(report["results"]["entries"]) == 1 + 3 * 3

    def test_failing_battery_exits_one(self, tmp_path):
        z = tmp_path / "alt.sqz"
        run(["generate", "--kind", "bernoulli", "--probs", "1.0,0.0", "--n", 2000,
             "--out", z])  # constant -1 sequence: lag sums are 1
        assert run(["chowla", "--in", z, "--max-lag", 2, "--max-r", 1,
                    "--n", 1000, "--tol", 0.5]) == 1

    def test_max_r_above_max_lag_is_max_lag(self, tmp_path, capsys):
        # no lag set has more than max_lag lags; in a child, so a hang times out
        z = tmp_path / "m.sqz"
        assert run(["generate", "--kind", "mobius", "--n", 3000, "--out", z]) == 0
        argv = ["chowla", "--in", str(z), "--max-lag", "3", "--n", "500", "--tol", "0.1"]
        capsys.readouterr()
        assert run([*argv, "--max-r", 3]) == 0
        expected = json.loads(capsys.readouterr().out)["results"]
        env = dict(os.environ, PYTHONPATH=str(Path(chowla_lab.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "chowla_lab.cli", *argv, "--max-r", "99999999999"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"] == expected

    def test_deterministic_reports(self, mobius_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["chowla", "--in", mobius_file, "--max-lag", 2, "--max-r", 1, "--tol", 0.02]
        assert run([*args, "--out-report", a]) == 0
        assert run([*args, "--out-report", b]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSarnak:
    def test_rotation(self, mobius_file, capsys):
        assert run(["sarnak", "--in", mobius_file, "--system", "rotation",
                    "--alpha", 0.41421356, "--f", "cos"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["results"]["final"]) < 0.05

    def test_subshift_composition_round_trips(self, mobius_file, tmp_path, capsys):
        t_path = tmp_path / "t.sqz"
        assert run(["toeplitz", "build", "--q", 5, "--ref", mobius_file,
                    "--out", t_path]) == 0
        # byte-exact round trip through the file format
        t_mem = build_toeplitz(mobius_prefix(100_000), 5, 100_000)
        assert read_sqz(t_path) == t_mem
        capsys.readouterr()
        assert run(["sarnak", "--in", mobius_file, "--system", "subshift",
                    "--weights", t_path, "--n", 50_000]) == 0

    def test_csv_report(self, mobius_file, capsys):
        assert run(["sarnak", "--in", mobius_file, "--system", "periodic",
                    "--pattern", "1", "--report", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "series,n,value"
        assert len(lines) == 11


def dispatched_features():
    """The SIMD targets above numpy's baseline that it dispatches to on this CPU."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]


def simd_level_reports(args):
    """The stdout of the command in a child at numpy's default SIMD level and
    in one with every dispatched target above its baseline disabled; a skip
    where numpy dispatches to none, as the two children would then match."""
    features = dispatched_features()
    if not features:
        pytest.skip("numpy dispatches to no SIMD target above its baseline on this CPU")
    reports = []
    for disabled in (None, " ".join(features)):
        env = dict(os.environ, PYTHONPATH=str(Path(chowla_lab.__file__).parents[1]))
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        proc = subprocess.run([sys.executable, "-m", "chowla_lab.cli", *map(str, args)],
                              env=env, capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        reports.append(proc.stdout)
    return reports


class TestDavenport:
    def test_runs(self, mobius_file, capsys):
        assert run(["davenport", "--in", mobius_file, "--grid", 200]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["max_value"] < 0.05

    def test_same_bytes_at_every_simd_level(self, mobius_file):
        # complex np.abs rounds 1 + d*d once in numpy's FMA kernels and twice in
        # its baseline one, which moves this report's bytes
        default, baseline = simd_level_reports(["davenport", "--in", mobius_file, "--grid", 1000])
        assert json.loads(default)["results"]["argmax_theta"] == 0.207
        assert default == baseline


class TestEntropy:
    def test_report_fields(self, mobius_file, capsys):
        assert run(["entropy", "--in", mobius_file, "--n-max", 10]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["results"]["counts"]) == 10
        assert report["results"]["estimate"] > 0

    def test_same_bytes_at_every_simd_level(self, tmp_path):
        # a period-1621 word has p_n = 1621 from n = 14 on, where np.log2's
        # AVX-512 and baseline kernels differ in the last bit; each child
        # must write the bytes of the other
        period = np.random.default_rng(1621).integers(-1, 2, size=1621, dtype=np.int8)
        write_sqz(tmp_path / "w.sqz", SignSeq(np.resize(period, 20_000)))
        default, baseline = simd_level_reports(["entropy", "--in", tmp_path / "w.sqz", "--n-max", 20])
        assert json.loads(default)["results"]["counts"][13:] == [1621] * 7
        assert default == baseline


class TestHatTest:
    def test_coded_sequence_fails(self, tmp_path):
        z = tmp_path / "c.sqz"
        run(["generate", "--kind", "coded", "--k0", 2, "--seed", 42,
             "--n", 200_000, "--out", z])
        assert run(["hat-test", "--in", z, "--k", 4, "--tol", 0.01]) == 1

    def test_bernoulli_passes(self, tmp_path):
        z = tmp_path / "b.sqz"
        run(["generate", "--kind", "bernoulli", "--probs", "0.25,0.5,0.25",
             "--seed", 5, "--n", 200_000, "--out", z])
        assert run(["hat-test", "--in", z, "--k", 4, "--tol", 0.01]) == 0

    def test_k16_small_tol_finishes(self, tmp_path):
        # 3^16 window codes and tens of thousands of audited squares: in a
        # child, so a sign test that enumerates them one by one times out
        z = tmp_path / "b.sqz"
        run(["generate", "--kind", "bernoulli", "--probs", "0.45,0.1,0.45",
             "--seed", 1, "--n", 100_000, "--out", z])
        env = dict(os.environ, PYTHONPATH=str(Path(chowla_lab.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "chowla_lab.cli", "hat-test", "--in", str(z),
             "--k", "16", "--tol", "0.0001"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode in (0, 1)
        report = json.loads(proc.stdout)
        assert report["command"] == "hat-test"
        assert report["results"]["audited_blocks"] > 0


class TestToeplitzAnalyze:
    def test_exact_intervals(self, capsys):
        assert run(["toeplitz", "analyze", "--q", 3, "--m", 4, "--ell", 2,
                    "--k", 1000]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["type1_fraction"] == 4 / 9
        assert report["verdict"] == "pass"

    def test_type1_count_skips_non_initial_j(self, capsys):
        # j = 3 lies in A_1, so the tail of 8 holds 4 + 2 type-1 positions
        assert run(["toeplitz", "analyze", "--q", 2, "--m", 6, "--ell", 3,
                    "--k", 50]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["type1_count_expected"] == 6
        assert report["verdict"] == "pass"

    def test_tail_statistics_past_the_table_bound(self, capsys):
        # K*q^m = 6.25e9 is above classify_initials' bound, but the tails
        # need memory O(K + L) only
        results = []
        for k in (10**4, 10**7):
            assert run(["toeplitz", "analyze", "--q", 5, "--m", 4, "--ell", 2,
                        "--k", k]) == 0
            results.append(json.loads(capsys.readouterr().out)["results"])
        small, large = results
        for key in ("type1_mask", "type1_count_expected", "type1_count_observed"):
            assert large[key] == small[key]

    @pytest.mark.parametrize("q, m, ell, k", [
        (5, 4, 2, 200_000_001), (2, 29, 28, 1), (2, 28, 27, 1), (10, 18, 1, 10),
        (2, 62, 1, 1),
    ], ids=["K", "q^ell", "q^ell-2^27", "K*q^m", "m"])
    def test_tail_bounds_are_one_error_line(self, capsys, q, m, ell, k):
        assert run(["toeplitz", "analyze", "--q", q, "--m", m, "--ell", ell, "--k", k]) == 2
        assert_one_error_line(capsys)

    def test_with_reference(self, mobius_file, capsys):
        assert run(["toeplitz", "analyze", "--q", 3, "--m", 3, "--ell", 1,
                    "--k", 200, "--ref", mobius_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "entropy_lower_bound" in report["results"]
        assert report["results"]["correlation"] >= report["results"]["correlation_lower_bound"]

    def test_zero_term_reference_is_too_short(self, tmp_path, capsys):
        # a 12-byte .sqz has no chunk, so reading it to its end reduces over
        # no empty one: it is only too short for the bounds
        ref = tmp_path / "empty.sqz"
        ref.write_bytes(seqcore.SQZ_HEADER.pack(seqcore.SQZ_MAGIC, 0))
        assert run(["toeplitz", "analyze", "--q", 5, "--m", 4, "--ell", 2, "--k", 10,
                    "--ref", ref]) == 0
        note = json.loads(capsys.readouterr().out)["results"]["note"]
        assert note == "reference too short for entropy bound (need 6250)"


class TestBounds:
    def test_pass(self):
        h2 = 6 / math.pi**2
        assert run(["bounds", "--h-square", h2, "--h-full", h2 * math.log2(3),
                    "--recurrent"]) == 0

    def test_fail(self):
        assert run(["bounds", "--h-square", 0.9, "--h-full", 0.9, "--recurrent"]) == 1


class TestDeterminize:
    def test_writes_output_and_report(self, tmp_path, capsys):
        z = tmp_path / "u.sqz"
        run(["generate", "--kind", "bernoulli", "--probs", "0.5,0.5", "--seed", 8,
             "--n", 50_000, "--out", z])
        capsys.readouterr()
        out = tmp_path / "d.sqz"
        assert run(["determinize", "--in", z, "--epsilon", 0.1, "--n-block", 20,
                    "--big-n", 100, "--out", out]) == 0
        report = json.loads(capsys.readouterr().out)
        step = report["results"]["steps"][0]
        assert step["distinct_blocks"] < step["distinct_bound"]
        assert len(read_sqz(out)) == 50_000

    def test_failed_report_leaves_no_sqz(self, tmp_path, capsys):
        # a report that cannot replace a directory neither writes d.sqz nor
        # replaces an --out that is the input
        z = tmp_path / "u.sqz"
        run(["generate", "--kind", "bernoulli", "--probs", "0.25,0.5,0.25", "--n", 1000,
             "--out", z])
        capsys.readouterr()
        before = z.read_bytes()
        (tmp_path / "rdir").mkdir()
        for out in (tmp_path / "d.sqz", z):
            assert run(["determinize", "--in", z, "--epsilon", 0.1, "--n-block", 2,
                        "--big-n", 4, "--out", out, "--out-report", tmp_path / "rdir"]) == 2
            assert_one_error_line(capsys)
            assert sorted(tmp_path.iterdir()) == [tmp_path / "rdir", z]
            assert z.read_bytes() == before

    def test_out_may_be_the_input(self, tmp_path, capsys):
        # every read of the opened input ends before --out replaces it
        z = tmp_path / "u.sqz"
        run(["generate", "--kind", "bernoulli", "--probs", "0.25,0.5,0.25", "--n", 1000,
             "--out", z])
        result = cl.determinize_step(read_sqz(z), cl.DeterminizeParams(0.1, 2, 4))
        assert result.changed_fraction > 0
        capsys.readouterr()
        assert run(["determinize", "--in", z, "--epsilon", 0.1, "--n-block", 2,
                    "--big-n", 4, "--out", z]) == 0
        assert read_sqz(z) == result.sequence
        assert sorted(tmp_path.iterdir()) == [z]

    @pytest.mark.parametrize("argv", [
        ["entropy", "--in", "{z}", "--out-report", "{tmp}/r.json"],
        ["determinize", "--in", "{z}", "--epsilon", 0.1, "--n-block", 4, "--big-n", 8,
         "--out", "{tmp}/d.sqz", "--out-report", "{tmp}/r.json"],
    ], ids=["entropy", "determinize"])
    def test_bad_last_byte_is_refused(self, tmp_path, capsys, argv):
        # the last letter is read, though the longest windows do not need it
        # to be valid, and neither a report nor a .sqz is written
        payload = np.zeros(1000, dtype=np.int8)
        payload[-1] = 5
        z = tmp_path / "z.sqz"
        z.write_bytes(b"SQZ1" + (1000).to_bytes(8, "little") + payload.tobytes())
        assert run([str(a).format(z=z, tmp=tmp_path) for a in argv]) == 2
        line = assert_one_error_line(capsys)
        assert line == "error: symbol out of alphabet {-1,0,1} at position 1000: 5"
        assert list(tmp_path.iterdir()) == [z]


# Each command that writes a file, with the flag that names it.
OUTPUT_FLAGS = pytest.mark.parametrize("argv, flag", [
    (["generate", "--kind", "mobius", "--n", 1000], "--out"),
    (["toeplitz", "build", "--q", 5, "--ref", "{m}"], "--out"),
    (["chowla", "--in", "{m}", "--max-lag", 2, "--max-r", 1], "--out-report"),
    (["determinize", "--in", "{m}", "--epsilon", 0.1, "--n-block", 2, "--big-n", 4,
      "--out", "{tmp}/d.sqz"], "--out-report"),
    (["determinize", "--in", "{m}", "--epsilon", 0.1, "--n-block", 2, "--big-n", 4,
      "--out-report", "{tmp}/r.json"], "--out"),
], ids=["generate-out", "toeplitz-build-out", "chowla-out-report",
        "determinize-out-report", "determinize-out"])


class TestUsageErrors:
    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as err:
            run(["chowla", "--nope", "x"])
        assert err.value.code == 2

    def test_missing_input_file(self, tmp_path):
        assert run(["chowla", "--in", tmp_path / "missing.sqz"]) == 2

    def test_bad_parameter_value(self, mobius_file):
        assert run(["davenport", "--in", mobius_file, "--grid", 10]) == 2

    @pytest.mark.parametrize("flags", [
        ["--n", 0], ["--n", -3], ["--tol", "nan"], ["--tol", "inf"], ["--tol", 0],
        ["--tol", -0.5], ["--max-lag", 10**11, "--max-r", 10**11],
    ])
    def test_bad_battery_input_is_one_error_line(self, mobius_file, capsys, flags):
        assert run(["chowla", "--in", mobius_file, *flags]) == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("argv", [
        ["hat-test", "--in", "{m}", "--tol", "nan"],
        ["hat-test", "--in", "{m}", "--tol", "inf"],
        ["generate", "--kind", "bernoulli", "--probs", "nan,0.5", "--n", 100,
         "--out", "{tmp}/b.sqz"],
        ["generate", "--kind", "bernoulli", "--probs", "0.5,nan,0.5", "--n", 100,
         "--out", "{tmp}/b.sqz"],
        ["determinize", "--in", "{m}", "--epsilon", 0.1, "--n-block", 4, "--big-n", 8,
         "--steps", 0, "--out", "{tmp}/d.sqz"],
        ["determinize", "--in", "{m}", "--epsilon", 0.1, "--n-block", 40, "--big-n", 80,
         "--out", "{tmp}/d.sqz"],
        ["determinize", "--in", "{m}", "--epsilon", 0.1, "--n-block", 4, "--big-n", 8,
         "--steps", 1025, "--out", "{tmp}/d.sqz"],
        ["determinize", "--in", "{m}", "--epsilon", 0.5, "--n-block", 3, "--big-n", 2049,
         "--out", "{tmp}/d.sqz"],
        ["sarnak", "--in", "{m}", "--system", "periodic", "--pattern", "1", "--n", 0],
        ["sarnak", "--in", "{m}", "--system", "rotation", "--alpha", 0.5, "--n", -3],
        ["sarnak", "--in", "{m}", "--system", "rotation", "--alpha", "nan"],
        ["sarnak", "--in", "{m}", "--system", "rotation", "--alpha", 0.5, "--x0", "inf"],
        ["sarnak", "--in", "{m}", "--system", "periodic", "--pattern", "1,nan"],
        ["sarnak", "--in", "{m}", "--system", "periodic", "--pattern", "1e308,1e308",
         "--out-report", "{tmp}/r.json"],
        ["sarnak", "--in", "{m}", "--system", "periodic", "--pattern", "1e308,1e308",
         "--report", "csv", "--out-report", "{tmp}/r.csv"],
        ["sarnak", "--in", "{m}", "--system", "rotation", "--alpha", "1e307",
         "--out-report", "{tmp}/r.json"],
        ["davenport", "--in", "{m}", "--n", 0],
        ["davenport", "--in", "{m}", "--n", -3],
        ["davenport", "--in", "{m}", "--n", 10**6],
        ["sarnak", "--in", "{m}", "--system", "rotation", "--alpha", 0.5, "--n", 10**6],
        ["chowla", "--in", "{m}", "--max-lag", 100_000],
        ["toeplitz", "analyze", "--q", 2, "--m", 70, "--ell", 1, "--k", 1],
        ["toeplitz", "analyze", "--q", 2, "--m", 70, "--ell", 1, "--k", 1, "--ref", "{m}"],
        ["toeplitz", "analyze", "--q", 10, "--m", 19, "--ell", 1, "--k", 1],
        ["toeplitz", "analyze", "--q", 10, "--m", 19, "--ell", 1, "--k", 1, "--ref", "{m}"],
        ["toeplitz", "build", "--q", 5, "--ref", "{m}", "--n", 0, "--out", "{tmp}/t.sqz"],
        ["toeplitz", "build", "--q", 5, "--ref", "{m}", "--n", -3, "--out", "{tmp}/t.sqz"],
        ["toeplitz", "build", "--q", 1, "--ref", "{m}", "--out", "{tmp}/t.sqz"],
        ["toeplitz", "build", "--q", 1, "--ref", "{m}", "--n", 100, "--out", "{tmp}/t.sqz"],
        ["toeplitz", "analyze", "--q", 1, "--m", 4, "--ell", 2, "--k", 10,
         "--out-report", "{tmp}/r.json"],
        ["toeplitz", "analyze", "--q", 1, "--m", 4, "--ell", 2, "--k", 10, "--ref", "{m}",
         "--out-report", "{tmp}/r.json"],
        ["generate", "--kind", "mu-b", "--n", 100, "--out", "{tmp}/b.sqz"],
        ["generate", "--kind", "sturmian", "--n", 100, "--out", "{tmp}/b.sqz"],
        ["generate", "--kind", "bernoulli", "--n", 100, "--out", "{tmp}/b.sqz"],
        ["generate", "--kind", "bernoulli", "--probs", "0.5", "--n", 100,
         "--out", "{tmp}/b.sqz"],
        ["generate", "--kind", "bernoulli", "--probs", "0.25,0.25,0.25,0.25", "--n", 100,
         "--out", "{tmp}/b.sqz"],
        # refused before the (missing) input is read
        ["sarnak", "--in", "{tmp}/missing.sqz", "--system", "rotation"],
        ["sarnak", "--in", "{tmp}/missing.sqz", "--system", "periodic"],
        ["sarnak", "--in", "{tmp}/missing.sqz", "--system", "subshift"],
    ], ids=["hat-tol-nan", "hat-tol-inf", "probs-nan", "probs-nan-3", "steps-0",
            "n-block-40", "steps-1025", "determinize-2^1024", "sarnak-n-0", "sarnak-n-neg",
            "sarnak-alpha-nan", "sarnak-x0-inf", "sarnak-pattern-nan",
            "sarnak-pattern-overflow", "sarnak-pattern-overflow-csv", "sarnak-alpha-overflow",
            "davenport-n-0",
            "davenport-n-neg", "davenport-n-long", "sarnak-n-long", "chowla-max-lag-long",
            "toeplitz-2^70", "toeplitz-2^70-ref", "toeplitz-10^19",
            "toeplitz-10^19-ref", "toeplitz-build-n-0", "toeplitz-build-n-neg",
            "toeplitz-build-q-1", "toeplitz-build-n-q-1", "toeplitz-analyze-q-1",
            "toeplitz-analyze-ref-q-1",
            "mu-b-no-bset", "sturmian-no-alpha", "bernoulli-no-probs", "probs-1", "probs-4",
            "rotation-no-alpha", "periodic-no-pattern", "subshift-no-weights"])
    def test_bad_input_is_one_error_line(self, mobius_file, tmp_path, capsys, request, argv):
        argv = [str(a).format(m=mobius_file, tmp=tmp_path) for a in argv]
        assert run(argv) == 2
        line = assert_one_error_line(capsys)
        assert ERROR_TEXT.get(request.node.callspec.id, "") in line
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("window, line", [
        (["--n-max", 1], "need 1 <= n_lo < n_hi <= 1, got [1, 1]"),
        (["--n-max", 60, "--n-lo", 50, "--n-hi", 45], "need 1 <= n_lo < n_hi <= 60, got [50, 45]"),
    ], ids=["n-max-1", "n-lo-above-n-hi"])
    def test_entropy_window_is_refused_before_the_input_is_read(self, tmp_path, capsys,
                                                                 monkeypatch, window, line):
        # neither a missing input nor a profile is reached: a 10^7 profile
        # past 39 letters takes seconds to minutes
        def profile(*args):
            raise AssertionError("the profile ran before the window was checked")

        monkeypatch.setattr(cli, "complexity_profile", profile)
        assert run(["entropy", "--in", tmp_path / "missing.sqz", *window]) == 2
        assert assert_one_error_line(capsys) == f"error: {line}"

    @pytest.mark.parametrize("argv", [
        ["hat-test", "--in", "{m}", "--k", 4],
        ["toeplitz", "analyze", "--q", 2, "--m", 4, "--ell", 2, "--k", 3, "--ref", "{m}"],
        ["bounds", "--h-square", 0.5, "--h-full", 1.0],
        ["determinize", "--in", "{m}", "--epsilon", 0.1, "--n-block", 4, "--big-n", 8,
         "--out", "{tmp}/d.sqz"],
    ], ids=["hat-test", "toeplitz-analyze", "bounds", "determinize"])
    def test_csv_only_for_commands_with_series(self, mobius_file, tmp_path, argv):
        argv = [str(a).format(m=mobius_file, tmp=tmp_path) for a in argv]
        report = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as err:
            run([*argv, "--report", "csv", "--out-report", report])
        assert err.value.code == 2
        assert list(tmp_path.iterdir()) == []

    @OUTPUT_FLAGS
    def test_output_in_a_missing_directory_is_refused_first(self, mobius_file, tmp_path,
                                                            capsys, argv, flag):
        # refused before any work, which a failed write at the end would lose
        missing = tmp_path / "missing" / "out"
        argv = [str(a).format(m=mobius_file, tmp=tmp_path) for a in argv]
        assert run([*argv, flag, missing]) == 2
        assert assert_one_error_line(capsys) == f"error: output directory does not exist: {missing}"
        assert list(tmp_path.iterdir()) == []

    @OUTPUT_FLAGS
    def test_output_that_is_a_directory_is_refused_first(self, mobius_file, tmp_path,
                                                         capsys, argv, flag):
        target = tmp_path / "existing-dir"
        target.mkdir()
        argv = [str(a).format(m=mobius_file, tmp=tmp_path) for a in argv]
        assert run([*argv, flag, target]) == 2
        assert assert_one_error_line(capsys) == f"error: output path is a directory: {target}"
        assert list(tmp_path.iterdir()) == [target]
        assert list(target.iterdir()) == []

    def test_out_of_memory_is_one_error_line(self, tmp_path):
        # The 10^10-term doubling word, which is built whole before it is
        # written, cannot fit under a 3 GiB address-space cap, which applies
        # to the child process only.  (The sieve kinds stream their output.)
        resource = pytest.importorskip("resource")

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        env = dict(os.environ, PYTHONPATH=str(Path(chowla_lab.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "chowla_lab.cli", "generate", "--kind", "example-aa",
             "--n", str(10**10), "--out", "m.sqz"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            preexec_fn=cap_address_space, timeout=120,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_coded_lag_beyond_memory_is_one_error_line(self, tmp_path):
        # omega's first draw holds the k0 - 1 carried letters, so a lag of
        # 10^11 fails at once under the cap rather than growing the carry
        # one chunk at a time
        resource = pytest.importorskip("resource")

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        env = dict(os.environ, PYTHONPATH=str(Path(chowla_lab.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "chowla_lab.cli", "generate", "--kind", "coded",
             "--k0", str(10**11), "--n", "10", "--out", "c.sqz"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            preexec_fn=cap_address_space, timeout=60,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_failed_streamed_write_is_one_error_line(self, tmp_path):
        # The sieve writes each segment as it is made: a 10^10-term file
        # outgrows a 64 MiB file-size cap (Python ignores SIGXFSZ, so the
        # write fails with EFBIG), and the partial temp file is removed.  The
        # address-space cap keeps a sieve that builds its whole output from
        # taking 10 GB.
        resource = pytest.importorskip("resource")

        def cap_file_size():
            resource.setrlimit(resource.RLIMIT_FSIZE, (64 << 20, 64 << 20))
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        env = dict(os.environ, PYTHONPATH=str(Path(chowla_lab.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "chowla_lab.cli", "generate", "--kind", "mobius",
             "--n", str(10**10), "--out", "m.sqz"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            preexec_fn=cap_file_size, timeout=120,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "m.sqz" in lines[0]
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_sieve_beyond_2_36_is_refused_before_allocating(self, tmp_path):
        # The sieve's uint8 accumulator holds 7*log2 N only below 2**36.  The
        # cap keeps a regression from allocating the 64 GiB output; a refusal
        # names N and needs no memory, so it returns at once.
        resource = pytest.importorskip("resource")

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        env = dict(os.environ, PYTHONPATH=str(Path(chowla_lab.__file__).parents[1]))
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "chowla_lab.cli", "generate", "--kind", "mobius",
             "--n", str(2**36), "--out", "m.sqz"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            preexec_fn=cap_address_space, timeout=120,
        )
        assert time.monotonic() - start < 20
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: N = 68719476736 is too large for the sieve: need N < 2**36"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["generate", "--kind", "mobius", "--n", 1000, "--out", "{dir}"],
        ["davenport", "--in", "{m}", "--grid", 100, "--out-report", "{dir}"],
        ["davenport", "--in", "{m}", "--grid", 100, "--report", "csv",
         "--out-report", "{dir}"],
    ], ids=["sqz", "json-report", "csv-report"])
    def test_failed_write_leaves_no_temp_file(self, mobius_file, tmp_path, capsys, argv):
        target = tmp_path / "existing-dir"
        target.mkdir()
        assert run([str(a).format(m=mobius_file, dir=target) for a in argv]) == 2
        assert_one_error_line(capsys)
        assert list(tmp_path.glob("*.tmp*")) == []
        assert list(target.iterdir()) == []


def ternary_file(path, seed, size):
    z = SignSeq(np.random.default_rng(seed).integers(-1, 2, size=size))
    write_sqz(path, z)
    return z


class TestStreaming:
    """generate (mu, lambda), chowla, sarnak, davenport, hat-test, toeplitz
    build and toeplitz analyze read and write .sqz files one chunk at a
    time: the same bytes wherever the chunks fall, also where a chunk is
    shorter than a window or holds a checkpoint."""

    CHUNKS = [1, 7, 64]

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("kind, prefix", [("mobius", mobius_prefix),
                                              ("liouville", liouville_prefix)])
    def test_generate_equals_the_prefix(self, tmp_path, monkeypatch, capsys, chunk, kind,
                                        prefix):
        expected = prefix(3001)
        monkeypatch.setattr(numbergen, "_SEGMENT", chunk)
        monkeypatch.setattr(seqcore, "_CHUNK", chunk)
        assert run(["generate", "--kind", kind, "--n", 3001, "--out", tmp_path / "z.sqz"]) == 0
        assert read_sqz(tmp_path / "z.sqz") == expected

    @pytest.mark.parametrize("chunk", [1, 7, seqcore._CHUNK])
    @pytest.mark.parametrize("flags, prefix", [
        (["--kind", "sturmian", "--alpha", 0.41421356],
         lambda n: cl.sturmian_prefix(cl.SturmianParams(0.41421356), n)),
        (["--kind", "bernoulli", "--probs", "0.25,0.5,0.25", "--seed", 3],
         lambda n: cl.bernoulli_prefix((-1, 0, 1), cl.BernoulliParams((0.25, 0.5, 0.25), 3), n)),
        (["--kind", "coded", "--seed", 3], lambda n: cl.pair_code_prefix(2, 3, n)),
        (["--kind", "squares-needed", "--seed", 3], lambda n: cl.masked_coin_prefix(3, n)),
        (["--kind", "example-aa"], cl.doubling_word_prefix),
        (["--kind", "mu-b", "--bset", "4,9"],
         lambda n: cl.mu_b_prefix(cl.BSet.from_squares([4, 9]), n)),
    ], ids=["sturmian", "bernoulli", "coded", "squares-needed", "example-aa", "mu-b-4-9"])
    def test_generate_writes_the_generators_prefix(self, tmp_path, monkeypatch, capsys, chunk,
                                                   flags, prefix):
        # the kinds that build a SignSeq write it one chunk at a time
        write_sqz(tmp_path / "expected.sqz", prefix(3001))
        monkeypatch.setattr(seqcore, "_CHUNK", chunk)
        assert run(["generate", *flags, "--n", 3001, "--out", tmp_path / "z.sqz"]) == 0
        assert (tmp_path / "z.sqz").read_bytes() == (tmp_path / "expected.sqz").read_bytes()

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("n", [None, 1234])
    def test_davenport_equals_the_in_memory_scan(self, tmp_path, monkeypatch, capsys, chunk, n):
        z = ternary_file(tmp_path / "z.sqz", 5, 3001)
        expected = davenport_scan(z, n or len(z), 100)
        monkeypatch.setattr(seqcore, "_CHUNK", chunk)
        n_flag = ["--n", n] if n else []
        assert run(["davenport", "--in", tmp_path / "z.sqz", "--grid", 100, *n_flag]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["curve"] == [{"n": k, "value": v} for k, v in expected.curve]
        assert results["max_value"] == expected.max_value
        assert results["argmax_theta"] == expected.argmax_theta

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("n", [None, 1234])
    def test_chowla_equals_the_in_memory_battery(self, tmp_path, monkeypatch, capsys, chunk, n):
        z = ternary_file(tmp_path / "z.sqz", 5, 3001)
        expected = ch_battery(z, 4, 2, n or len(z) - 4, 0.02)
        monkeypatch.setattr(seqcore, "_CHUNK", chunk)
        n_flag = ["--n", n] if n else []
        argv = ["chowla", "--in", tmp_path / "z.sqz", "--max-lag", 4, "--max-r", 2, *n_flag]
        assert run(argv) == (0 if expected.passed else 1)
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["entries"] == [{"spec": e.spec.label(), "value": e.value}
                                      for e in expected.entries]
        witness = next(e.curve for e in expected.entries if e.spec == expected.witness)
        assert results["witness_curve"] == [{"n": k, "value": v} for k, v in witness.checkpoints]

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("n", [None, 1234])
    def test_sarnak_equals_the_in_memory_sum(self, tmp_path, monkeypatch, capsys, chunk, n):
        # leaves of 128 terms make several per checkpoint slice
        z = ternary_file(tmp_path / "z.sqz", 5, 3001)
        expected = sarnak_sum(RotationSampler(alpha=0.41421356), z, n or len(z))
        monkeypatch.setattr(seqcore, "_CHUNK", chunk)
        monkeypatch.setattr(correlations, "_PAIRWISE_NODE", 128)
        n_flag = ["--n", n] if n else []
        argv = ["sarnak", "--in", tmp_path / "z.sqz", "--system", "rotation",
                "--alpha", 0.41421356, *n_flag]
        assert run(argv) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["curve"] == [{"n": k, "value": v} for k, v in expected.checkpoints]

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("q, m, ell, k", [(3, 4, 2, 37), (2, 6, 3, 46)])
    def test_toeplitz_analyze_equals_the_in_memory_bounds(self, tmp_path, monkeypatch, capsys,
                                                          chunk, q, m, ell, k):
        ref = ternary_file(tmp_path / "ref.sqz", q, 3001)
        bound = toeplitz_entropy_lower_bound(ref, q, m, ell, k)
        corr = toeplitz_correlation(ref, q, k * q**m)
        monkeypatch.setattr(seqcore, "_CHUNK", chunk)
        argv = ["toeplitz", "analyze", "--q", q, "--m", m, "--ell", ell, "--k", k,
                "--ref", tmp_path / "ref.sqz"]
        assert run(argv) == (0 if corr.holds else 1)
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["distinct_blocks"] == bound.distinct_blocks > 1
        assert results["entropy_lower_bound"] == bound.estimate
        assert results["correlation"] == corr.value

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("k", [3, 8])
    def test_hat_test_equals_the_in_memory_sign_test(self, tmp_path, monkeypatch, capsys,
                                                     chunk, k):
        # k 3 walks the file into a dense table, k 8 (3**8 > N) reads it whole
        z = ternary_file(tmp_path / "z.sqz", 5, 3001)
        expected = sign_extension_test(z, k, 0.01)
        monkeypatch.setattr(seqcore, "_CHUNK", chunk)
        argv = ["hat-test", "--in", tmp_path / "z.sqz", "--k", k, "--tol", 0.01]
        assert run(argv) == (0 if expected.passed else 1)
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["max_violation"] == expected.max_violation
        assert results["witness"] == list(expected.witness.letters)
        assert results["audited_blocks"] == expected.audited_blocks
        assert results["violations"] == [{"block": list(b.letters), "deviation": d}
                                         for b, d in expected.violations]

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("q, n", [(2, None), (3, 1234), (5, None)])
    def test_toeplitz_build_equals_the_owner_oracle(self, tmp_path, monkeypatch, capsys,
                                                    chunk, q, n):
        ref = ternary_file(tmp_path / "ref.sqz", q, 3001)
        N = n or len(ref)
        owner = brute_owner(q, N)
        expected = build_toeplitz(ref, q, N)
        assert expected.values.tolist() == [ref[owner[k]] for k in range(1, N + 1)]
        monkeypatch.setattr(seqcore, "_CHUNK", chunk)
        assert build_toeplitz(ref, q, N) == expected
        n_flag = ["--n", n] if n else []
        assert run(["toeplitz", "build", "--q", q, "--ref", tmp_path / "ref.sqz", *n_flag,
                    "--out", tmp_path / "t.sqz"]) == 0
        assert read_sqz(tmp_path / "t.sqz") == expected

    @pytest.mark.parametrize("damage", ["bad-byte", "truncated", "extra-bytes"])
    @pytest.mark.parametrize("argv", [
        ["davenport", "--in", "{ref}", "--grid", 100],
        ["davenport", "--in", "{ref}", "--grid", 100, "--n", 100],
        ["toeplitz", "build", "--q", 5, "--ref", "{ref}", "--out", "{tmp}/t.sqz"],
        ["toeplitz", "build", "--q", 5, "--ref", "{ref}", "--n", 100, "--out", "{tmp}/t.sqz"],
        ["chowla", "--in", "{ref}", "--max-lag", 2, "--max-r", 1],
        ["chowla", "--in", "{ref}", "--max-lag", 2, "--max-r", 1, "--n", 100],
        ["hat-test", "--in", "{ref}", "--k", 4],
        ["sarnak", "--in", "{ref}", "--system", "rotation", "--alpha", 0.41421356],
        ["sarnak", "--in", "{ref}", "--system", "rotation", "--alpha", 0.41421356,
         "--n", 100],
        ["toeplitz", "analyze", "--q", 5, "--m", 4, "--ell", 2, "--k", 3000, "--ref", "{ref}"],
        ["toeplitz", "analyze", "--q", 5, "--m", 8, "--ell", 2, "--k", 10, "--ref", "{ref}"],
        ["entropy", "--in", "{ref}"],
        ["determinize", "--in", "{ref}", "--epsilon", 0.1, "--n-block", 4, "--big-n", 8,
         "--out", "{tmp}/d.sqz"],
    ], ids=["davenport", "davenport-n", "toeplitz-build", "toeplitz-build-n", "chowla",
            "chowla-n", "hat-test", "sarnak", "sarnak-n", "toeplitz-analyze",
            "toeplitz-analyze-short-ref", "entropy", "determinize"])
    def test_bad_input_in_mid_stream(self, tmp_path, capsys, damage, argv):
        # a bad byte two chunks past the first (and past --n, or K*q^m) is
        # found as the file is read, also where the reference is too short
        # for the bounds; a size that disagrees with the header is refused
        # before any work; either way no --out and no temp file is left
        N = 2 * seqcore._CHUNK + 1000
        size = {"bad-byte": N, "truncated": N - 2, "extra-bytes": N + 3}[damage]
        payload = np.zeros(size, dtype=np.int8)
        if damage == "bad-byte":
            payload[2 * seqcore._CHUNK + 500] = 5
        ref = tmp_path / "ref.sqz"
        ref.write_bytes(b"SQZ1" + N.to_bytes(8, "little") + payload.tobytes())
        argv = [str(a).format(ref=ref, tmp=tmp_path) for a in argv]
        assert run(argv) == 2
        line = assert_one_error_line(capsys)
        if damage == "bad-byte":
            position = 2 * seqcore._CHUNK + 501
            assert line == f"error: symbol out of alphabet {{-1,0,1}} at position {position}: 5"
        else:
            assert line == f"error: {ref}: expected {N} symbols, found {size} bytes"
        assert list(tmp_path.iterdir()) == [ref]

    @pytest.fixture(scope="class")
    def mobius_2_24(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("big") / "m.sqz"
        assert run(["generate", "--kind", "mobius", "--n", 1 << 24, "--out", path]) == 0
        return path

    @pytest.mark.parametrize("argv", [
        ["generate", "--kind", "mobius", "--n", 1 << 24, "--out", "{tmp}/g.sqz"],
        ["generate", "--kind", "sturmian", "--alpha", 0.6180339887498949, "--n", 1 << 24,
         "--out", "{tmp}/s.sqz"],
        ["davenport", "--in", "{m}", "--grid", 1000],
        ["toeplitz", "build", "--q", 5, "--ref", "{m}", "--out", "{tmp}/t.sqz"],
        ["chowla", "--in", "{m}", "--max-lag", 6, "--max-r", 3],
        ["hat-test", "--in", "{m}", "--k", 12, "--tol", 0.001],
        ["sarnak", "--in", "{m}", "--system", "rotation", "--alpha", 0.41421356],
        ["toeplitz", "analyze", "--q", 5, "--m", 4, "--ell", 2, "--k", 10000, "--ref", "{m}"],
    ], ids=["generate", "generate-sturmian", "davenport", "toeplitz-build", "chowla",
            "hat-test", "sarnak", "toeplitz-analyze"])
    def test_traced_peak_does_not_grow_with_n(self, mobius_2_24, tmp_path, capsys, argv):
        # one bound fixed in advance, 0.5 B/symbol at N = 2^24, where holding
        # the whole prefix traced 1.1-1.2 B/symbol (toeplitz build: 2.0,
        # chowla 1.6, hat-test --k 12 5.1, generate --kind sturmian 1.11);
        # a dense k = 12 table is 4.25 MB
        N = 1 << 24
        argv = [str(a).format(m=mobius_2_24, tmp=tmp_path) for a in argv]
        assert traced_peak(main, argv) < N // 2
        capsys.readouterr()


# sha256 of each report on the first 10^5 Mobius terms at N = 99,993, which
# 10 does not divide; recorded before the sums were moved onto checkpoint
# slices, so they pin the report bytes of every correlation path.
GOLDEN_REPORTS = {
    "chowla-json": (["chowla", "--in", "m.sqz", "--max-lag", 4, "--max-r", 2],
                    "8d590f0941258d82a0cd3f89a8ae841b1c5a944128cb80236c112860983b3bd3"),
    "chowla-csv": (["chowla", "--in", "m.sqz", "--max-lag", 4, "--max-r", 2, "--report", "csv"],
                   "cd6be77ab8181e8b67cf1062157676a2785c631f09868ce9fb7c017801f19df9"),
    "sarnak-rotation": (["sarnak", "--in", "m.sqz", "--system", "rotation",
                         "--alpha", "0.4142135623730951"],
                        "49a1b7485c2524326700f748cebba7f6c77050abcaa8ed6ee468e56e72550e42"),
    "sarnak-periodic": (["sarnak", "--in", "m.sqz", "--system", "periodic",
                         "--pattern", "1,-0.5,0.25"],
                        "749c8ebf6e8584e8618f348fa76d7844ef3e9aa0130d288ee88cd951ec6b1119"),
    "sarnak-subshift": (["sarnak", "--in", "m.sqz", "--system", "subshift", "--weights", "l.sqz"],
                        "a8865e0c9476607e7bb8f4309241f1add72ecbcb79b302cf7d13e66ec4a3cae7"),
    "davenport-101": (["davenport", "--in", "m.sqz", "--grid", 101],
                      "57efb2f499e1ad082be5b7f88f1ca144899b4f1be67d519cdbaa2d05fff92b86"),
    "davenport-1000": (["davenport", "--in", "m.sqz", "--grid", 1000],
                       "020a943468be07ae5666e093f0788b5165b0336f3acda031318be3763ad7edaa"),
}


# sha256 of each block-statistics output on a generated 20,000-term input,
# recorded while window codes were little-endian: the hat-test lists three
# violations in visiting order, entropy --n-max 60 takes lengths past 39
# through the re-ranked keys (recorded while every length up to n_max was
# re-ranked), and the first determinize pass finds 13 heavy windows.  The
# entropy --n-max 20 and 39 reports, recorded while every profile length was
# re-ranked, pin the sorted-code side of the split at 39.
BLOCK_REPORTS = {
    "hat-test-coded": (
        ["generate", "--kind", "coded", "--k0", 2, "--seed", 1],
        ["hat-test", "--k", 8, "--tol", 0.01], 1,
        {"report": "ae555b24ca8635bd838b1aa0b3e46127b35edc814e8130b0e7f391e48ac65f7f"}),
    "entropy-json": (
        ["generate", "--kind", "bernoulli", "--probs", "0.25,0.5,0.25", "--seed", 1],
        ["entropy", "--n-max", 60], 0,
        {"report": "68ca84111ecdef4b56e6a5c7e5c0c9c7f8c861b774e4f24c2f14d7b01087f4b2"}),
    "entropy-json-n20": (
        ["generate", "--kind", "bernoulli", "--probs", "0.25,0.5,0.25", "--seed", 1],
        ["entropy", "--n-max", 20], 0,
        {"report": "fa81bbc60d3914b532b917ad847b9453688765961af3a4cae13d0b097e1b308a"}),
    "entropy-json-n39": (
        ["generate", "--kind", "bernoulli", "--probs", "0.25,0.5,0.25", "--seed", 1],
        ["entropy", "--n-max", 39], 0,
        {"report": "c1d198d10ab28ab1e4b04c9fd966ae56db70d5408ba8df55bf86a97d88e20f51"}),
    "entropy-csv": (
        ["generate", "--kind", "bernoulli", "--probs", "0.25,0.5,0.25", "--seed", 1],
        ["entropy", "--n-max", 60, "--report", "csv"], 0,
        {"report": "169efdd338efd4e823a4e8d303ae1421e491c26eca76138eddc0474a956dd746"}),
    "determinize-sturmian": (
        ["generate", "--kind", "sturmian", "--alpha", "0.3819660112501051"],
        ["determinize", "--epsilon", 0.5, "--n-block", 12, "--big-n", 96, "--steps", 2,
         "--out", "out.sqz"], 0,
        {"report": "cc943adf7ba7faa37b5b09251de7c3db90640c40e85c6cd78e02a3d8096d5bd9",
         "out.sqz": "cd5ffbeedd326778117432b7e76f0b71ce4d87c195461fe3d1888c94951c1a39"}),
}


# sha256 of each report of the commands that take neither --n nor --in,
# recorded before the report path was shared by every command; the --ref
# cases read the golden 10^5-term Mobius input.
PLAIN_REPORTS = {
    "toeplitz-analyze": (
        ["toeplitz", "analyze", "--q", 2, "--m", 6, "--ell", 3, "--k", 50], 0,
        "d2f9025f892a3acffb823254238293d600639103cc84da08f9f8852bc2295441"),
    "toeplitz-analyze-ref": (
        ["toeplitz", "analyze", "--q", 3, "--m", 3, "--ell", 1, "--k", 200, "--ref", "m.sqz"], 0,
        "5c8965ee20fe52cd8b6a61e600da954e9cb6520b2d9b04bca5e16c8251f6690b"),
    # recorded before the reference was streamed: the shape of the benchmark's
    # toeplitz analyze (L = 25), L = 32 and L = 36 base-3 tail codes
    "toeplitz-analyze-ref-5-4-2": (
        ["toeplitz", "analyze", "--q", 5, "--m", 4, "--ell", 2, "--k", 160, "--ref", "m.sqz"], 0,
        "dd86a97114535027ee7b1caf140d3411c608ee0cc7d99646cfa6dd16a1e1fcef"),
    "toeplitz-analyze-ref-2-8-5": (
        ["toeplitz", "analyze", "--q", 2, "--m", 8, "--ell", 5, "--k", 390, "--ref", "m.sqz"], 0,
        "18bdfe96c6ec0e584601dca55ff4d2b0d79e9305a563256126fadaf96e4ed816"),
    "toeplitz-analyze-ref-6-5-2": (
        ["toeplitz", "analyze", "--q", 6, "--m", 5, "--ell", 2, "--k", 12, "--ref", "m.sqz"], 0,
        "ba7f08b9738b1ce58f06a67e161d05b78c4531ce3355444d5afe40f3b8e1954e"),
    "toeplitz-analyze-short-ref": (
        ["toeplitz", "analyze", "--q", 5, "--m", 8, "--ell", 2, "--k", 200, "--ref", "m.sqz"], 0,
        "b7048140214287ecbdef2ee0ebab29c7ba32900111e97a09cc1592fffd684479"),
    "bounds-pass": (
        ["bounds", "--h-square", 0.6079, "--h-full", 0.9636, "--recurrent"], 0,
        "8df0077ea951dd7418876178644eb4d20261fa1fcb4473f4da5422e356d9a1ff"),
    "bounds-fail": (
        ["bounds", "--h-square", 0.9, "--h-full", 0.9, "--recurrent"], 1,
        "6adf9b70e23c7302f69e2400be24aac190e367f530c83b3177578a3df128dbc4"),
}


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    for kind, name in (("mobius", "m.sqz"), ("liouville", "l.sqz")):
        assert run(["generate", "--kind", kind, "--n", 100_000, "--out", path / name]) == 0
    return path


class TestGoldenReports:
    @pytest.mark.parametrize("case", sorted(GOLDEN_REPORTS))
    def test_report_bytes(self, golden_dir, tmp_path, monkeypatch, case):
        argv, digest = GOLDEN_REPORTS[case]
        # params embed --in, so the inputs are named relative to a fixed cwd
        monkeypatch.chdir(golden_dir)
        report = tmp_path / "report"
        assert run([*argv, "--n", 99_993, "--out-report", report]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("case", sorted(PLAIN_REPORTS))
    def test_plain_report_bytes(self, golden_dir, tmp_path, monkeypatch, case):
        argv, code, digest = PLAIN_REPORTS[case]
        monkeypatch.chdir(golden_dir)
        report = tmp_path / "report"
        assert run([*argv, "--out-report", report]) == code
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("case", sorted(BLOCK_REPORTS))
    def test_block_report_bytes(self, tmp_path, monkeypatch, case):
        source, argv, code, digests = BLOCK_REPORTS[case]
        # params embed --in and --out, so every path is relative to tmp_path
        monkeypatch.chdir(tmp_path)
        assert run([*source, "--n", 20_000, "--out", "in.sqz"]) == 0
        assert run([*argv, "--in", "in.sqz", "--out-report", "report"]) == code
        for name, digest in digests.items():
            assert hashlib.sha256(Path(name).read_bytes()).hexdigest() == digest


# A child that runs the CLI with its arguments (none: only imports it) and
# writes its VmHWM line to stderr at exit.
PEAK_CHILD = """
import atexit, runpy, sys
def hwm():
    sys.stderr.write(next(line for line in open("/proc/self/status") if line.startswith("VmHWM:")))
atexit.register(hwm)
if sys.argv[1:]:
    sys.argv[0] = "chowla-lab"
    runpy.run_module("chowla_lab.cli", run_name="__main__")
else:
    import chowla_lab.cli
"""


def child_peak(cwd, *argv):
    """VmHWM in bytes of a fresh child that runs the CLI with argv."""
    env = dict(os.environ, PYTHONPATH=str(Path(chowla_lab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", PEAK_CHILD, *map(str, argv)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode in (0, 1), proc.stderr
    return int(proc.stderr.split("VmHWM:")[1].split()[0]) * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
class TestChildPeaks:
    # Each command at N = 2**22 in a fresh child that reads its own VmHWM at
    # exit: wait4's ru_maxrss would also count the RSS the child had before
    # exec, the test process's.  Its peak above a bare import's, per symbol,
    # measured here (2-vCPU Xeon, Python 3.11, numpy 2.4): generate
    # --kind bernoulli 1.7 (a chunk of draws at a time; 2.6 when it drew the
    # whole prefix), entropy --n-max 20 2.1 (one code range at a time; 4.7
    # with every code in one buffer), hat-test --k 12 2.4 (int32 tables,
    # slices; 5.1 with int64 tables) and determinize 1.8 (its N-byte
    # output).  Each bound is that + 0.5 B/symbol, 2 MB at this N, for other
    # interpreters and allocators.
    N = 2**22

    @pytest.fixture(scope="class")
    def bare(self, tmp_path_factory):
        return child_peak(tmp_path_factory.mktemp("bare"))

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("peaks")
        assert main(["generate", "--kind", "bernoulli", "--probs", "0.25,0.5,0.25", "--seed", "1",
                     "--n", str(self.N), "--out", str(path / "b.sqz")]) == 0
        return path

    @pytest.mark.parametrize("argv,bound", [
        (("generate", "--kind", "bernoulli", "--probs", "0.25,0.5,0.25", "--n", 2**22,
          "--out", "g.sqz"), 2.2),
        (("entropy", "--in", "b.sqz", "--n-max", 20), 2.6),
        (("hat-test", "--in", "b.sqz", "--k", 12, "--tol", 0.001), 2.9),
        (("determinize", "--in", "b.sqz", "--epsilon", 0.1, "--n-block", 20, "--big-n", 100,
          "--out", "d.sqz"), 2.3),
    ], ids=["generate-bernoulli", "entropy-n20", "hat-test-k12", "determinize-n20"])
    def test_peak_per_symbol(self, bare, workdir, argv, bound):
        peak = child_peak(workdir, *argv)
        assert (peak - bare) / self.N < bound
