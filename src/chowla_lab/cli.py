"""Command-line surface: generation, analysis batteries, the Toeplitz
pipeline, bound audits, and report emission.

Exit codes: 0 on success/pass, 1 when a battery or audit fails, 2 on usage
errors.  Reports are JSON (schema 1), or CSV of the series for the commands
that have series, written atomically; they embed the parameters, seed, and
tool version, so identical invocations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .correlations import (
    PeriodicSampler,
    RotationSampler,
    SubshiftSampler,
    ch_battery,
    davenport_scan,
    sarnak_sum,
)
from .empirics import complexity_profile, entropy_estimate, sign_extension_test
from .entbounds import EntropyPair, audit_entropy_pair
from .numbergen import BSet, _sign_sieve, mu_b_prefix
from .seqcore import _SqzFile, _atomic_write, _write_sqz_chunks, read_sqz, write_sqz
from .symbolicgen import (
    _bernoulli_chunks,
    _pair_code_chunks,
    _sturmian_chunks,
    BernoulliParams,
    DeterminizeParams,
    SturmianParams,
    determinize_step,
    doubling_word_prefix,
    masked_coin_prefix,
)
from .toeplitz import (
    _toeplitz_chunks,
    interval_analytics,
    toeplitz_correlation,
    toeplitz_entropy_lower_bound,
)

def _curve_rows(name: str, points: tuple[tuple[int, float], ...]) -> list[tuple[str, int, float]]:
    return [(name, n, value) for n, value in points]


def _curve_json(points: tuple[tuple[int, float], ...]) -> list[dict]:
    return [{"n": n, "value": value} for n, value in points]


def emit_report(args, command: str, results: dict, verdict: bool | None,
                curves: list[tuple[str, int, float]] | None = None) -> int:
    """Write the report to --out-report, or stdout, and return the exit
    code: 1 when the verdict is a fail, 0 on a pass or with no verdict."""
    if args.report == "csv":
        rows = [f"{name},{n},{value!r}\n" for name, n, value in curves or []]
        text = "".join(["series,n,value\n", *rows])
    else:
        report = {
            "schema": 1,
            "tool": "chowla-lab",
            "version": __version__,
            "command": command,
            "params": _params(args),
            "results": results,
        }
        if verdict is not None:
            report["verdict"] = "pass" if verdict else "fail"
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out_report:
        _atomic_write(args.out_report, (text.encode("utf-8"),))
    else:
        sys.stdout.write(text)
    return 0 if verdict is None or verdict else 1


def _params(args) -> dict:
    skip = {"func", "out_report"}  # the report's own location is not an input
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def _save_sqz(path: str, n: int, chunks) -> None:
    _write_sqz_chunks(path, n, chunks)
    print(f"{path}: {os.path.getsize(path)} bytes, {n} symbols")


def _csv(text: str, cast) -> list:
    return [cast(v) for v in text.split(",") if v.strip()]


def _load(path: str, stream: bool = False):
    """The SignSeq in ``path``, or with ``stream`` the opened file, which
    commands that need one chunk at a time read as they go."""
    if not os.path.exists(path):
        raise ValueError(f"input file does not exist: {path}")
    return _SqzFile(path) if stream else read_sqz(path)


def _bernoulli(args):
    """The chunks of the --probs draw, made as they are written."""
    probs = _csv(args.probs, float)
    alphabet = {2: (-1, 1), 3: (-1, 0, 1)}.get(len(probs))
    if alphabet is None:
        raise ValueError(f"--probs needs 2 or 3 values, got {len(probs)}")
    return _bernoulli_chunks(alphabet, BernoulliParams(tuple(probs), args.seed), args.n)


# Each --kind and --system: the option it needs, or None, and what it makes.
# An entry names its generator at call time, so a rebound module attribute
# (perfbench --trace 1 wraps them) is the one called.  A kind makes the int8
# chunks that are written: a SignSeq's, or the sieve's segments, the Sturmian
# letters, the Bernoulli draws and the coded chunks as they are made.
_KINDS = {
    "mobius": (None, lambda a: _sign_sieve(a.n, squarefree=True)),
    "liouville": (None, lambda a: _sign_sieve(a.n, squarefree=False)),
    # mu_b over every prime square is mu
    "mu-b": ("bset", lambda a: _sign_sieve(a.n, squarefree=True) if a.bset == "prime-squares"
             else mu_b_prefix(BSet.from_squares(_csv(a.bset, int)), a.n).chunks()),
    "sturmian": ("alpha", lambda a: _sturmian_chunks(SturmianParams(a.alpha, a.beta), a.n)),
    "bernoulli": ("probs", _bernoulli),
    "coded": (None, lambda a: _pair_code_chunks(a.k0, a.seed, a.n)),
    "squares-needed": (None, lambda a: masked_coin_prefix(a.seed, a.n).chunks()),
    "example-aa": (None, lambda a: doubling_word_prefix(a.n).chunks()),
}
_SYSTEMS = {
    "rotation": ("alpha", lambda a: RotationSampler(alpha=a.alpha, x0=a.x0, observable=a.f)),
    "periodic": ("pattern", lambda a: PeriodicSampler(pattern=tuple(_csv(a.pattern, float)))),
    "subshift": ("weights", lambda a: SubshiftSampler(w=_load(a.weights))),
}


def cmd_generate(args) -> int:
    _save_sqz(args.out, args.n, _KINDS[args.kind][1](args))
    return 0


def cmd_chowla(args) -> int:
    z = _load(args.input, stream=True)
    if args.n is None and args.max_lag >= len(z):
        raise ValueError(f"--max-lag {args.max_lag} must be below the prefix length {len(z)}")
    n = args.n if args.n is not None else len(z) - args.max_lag
    report = ch_battery(z, args.max_lag, args.max_r, n, args.tol)
    witness_curve = next(e.curve for e in report.entries if e.spec == report.witness)
    results = {
        "n": report.n,
        "tol": report.tol,
        "max_abs": report.max_abs,
        "witness": report.witness.label(),
        "witness_curve": _curve_json(witness_curve.checkpoints),
        "ch1_max_abs": report.ch1_max_abs,
        "ch1_witness": report.ch1_witness.label(),
        "ch1_passed": report.ch1_passed,
        "entries": [
            {"spec": e.spec.label(), "value": e.value} for e in report.entries
        ],
        "note": "vanishing for arithmetic sequences is a conjecture-consistency "
        "check, not a theorem",
    }
    curves = _curve_rows("witness:" + report.witness.label(), witness_curve.checkpoints)
    curves += [("entry:" + e.spec.label(), report.n, e.value) for e in report.entries]
    return emit_report(args, "chowla", results, report.passed, curves)


def cmd_sarnak(args) -> int:
    z = _load(args.input, stream=True)
    sampler = _SYSTEMS[args.system][1](args)
    n = args.n if args.n is not None else (len(z) if args.system != "subshift" else len(z) - 1)
    curve = sarnak_sum(sampler, z, n)
    results = {
        "n": n,
        "system": args.system,
        "final": curve.final,
        "curve": _curve_json(curve.checkpoints),
    }
    return emit_report(args, "sarnak", results, None, _curve_rows("sarnak", curve.checkpoints))


def cmd_davenport(args) -> int:
    z = _load(args.input, stream=True)
    n = args.n if args.n is not None else len(z)
    result = davenport_scan(z, n, args.grid)
    results = {
        "n": n,
        "grid": result.grid,
        "max_value": result.max_value,
        "argmax_theta": result.argmax_theta,
        "curve": _curve_json(result.curve),
    }
    return emit_report(args, "davenport", results, None, _curve_rows("davenport", result.curve))


def cmd_entropy(args) -> int:
    n_lo = args.n_lo if args.n_lo is not None else max(1, args.n_max - 4)
    n_hi = args.n_hi if args.n_hi is not None else args.n_max
    if not 1 <= n_lo < n_hi <= args.n_max:  # before the input is read and profiled
        raise ValueError(f"need 1 <= n_lo < n_hi <= {args.n_max}, got [{n_lo}, {n_hi}]")
    profile = complexity_profile(_load(args.input, stream=True), args.n_max)
    estimate = entropy_estimate(profile, n_lo, n_hi)
    results = {
        "prefix_length": profile.prefix_length,
        "counts": profile.counts.tolist(),
        "entropy_slope": profile.entropy_slope.tolist(),
        "estimate": estimate.value,
        "uncertainty": estimate.uncertainty,
        "window": [estimate.n_lo, estimate.n_hi],
        "note": "finite-scale estimator, not the true limit",
    }
    curve = [("p_n", n + 1, float(c)) for n, c in enumerate(profile.counts)]
    return emit_report(args, "entropy", results, None, curve)


def cmd_hat_test(args) -> int:
    z = _load(args.input, stream=True)
    report = sign_extension_test(z, args.k, args.tol)
    results = {
        "max_violation": report.max_violation,
        "witness": list(report.witness.letters) if report.witness else None,
        "audited_blocks": report.audited_blocks,
        "violations": [
            {"block": list(b.letters), "deviation": d} for b, d in report.violations
        ],
    }
    return emit_report(args, "hat-test", results, report.passed)


def cmd_toeplitz_build(args) -> int:
    ref = _load(args.ref, stream=True)
    n = args.n if args.n is not None else len(ref)
    _save_sqz(args.out, n, (t for _, t in _toeplitz_chunks(ref, args.q, n)))
    return 0


def cmd_toeplitz_analyze(args) -> int:
    ref = _load(args.ref, stream=True) if args.ref else None
    report = interval_analytics(args.q, args.m, args.ell, args.k)
    results = {
        "L": report.L,
        "good_count": report.good_count,
        "non_good_fraction": report.non_good_fraction,
        "non_good_bound": report.non_good_bound,
        "type1_count_expected": report.type1_count_expected,
        "type1_count_observed": report.type1_count_observed,
        "type1_fraction": report.type1_fraction,
        "type1_counts_equal": report.type1_counts_equal,
        "masks_identical": report.masks_identical,
        "type1_mask": list(report.type1_mask),
    }
    verdict = report.type1_count_observed == report.type1_count_expected
    if ref is not None:
        needed = args.k * args.q**args.m
        if len(ref) >= needed:
            bound = toeplitz_entropy_lower_bound(ref, args.q, args.m, args.ell, args.k)
            corr = toeplitz_correlation(ref, args.q, needed)
            results["entropy_lower_bound"] = bound.estimate
            results["distinct_blocks"] = bound.distinct_blocks
            results["correlation"] = corr.value
            results["correlation_lower_bound"] = corr.lower_bound
            verdict = verdict and corr.holds
        else:
            for _ in ref.chunks():  # a bad byte is refused, as on the path above
                pass
            results["note"] = f"reference too short for entropy bound (need {needed})"
    return emit_report(args, "toeplitz-analyze", results, verdict)


def cmd_bounds(args) -> int:
    pair = EntropyPair(h_square=args.h_square, h_full=args.h_full)
    verdict = audit_entropy_pair(pair, recurrent_closed=args.recurrent)
    results = {
        "upper_margin": verdict.upper_margin,
        "lower_margin": verdict.lower_margin,
        "equality_flag": verdict.equality_flag,
    }
    return emit_report(args, "bounds", results, verdict.passed)


def cmd_determinize(args) -> int:
    if args.steps < 1:
        raise ValueError(f"--steps must be >= 1, got {args.steps}")
    # the last pass's epsilon; 2**(steps-1) must convert to a float first
    if not (args.steps <= sys.float_info.max_exp and args.epsilon / 2**(args.steps - 1) > 0):
        raise ValueError(f"--epsilon/2**{args.steps - 1} is not a positive float")
    current = _load(args.input, stream=True)  # every read ends before --out is replaced
    steps = []
    ok = True
    for i in range(args.steps):
        params = DeterminizeParams(args.epsilon / 2**i, args.n_block, args.big_n)
        result = determinize_step(current, params)
        bound = result.distinct_block_bound(params)
        ok = ok and result.distinct_block_count < bound
        steps.append(
            {
                "epsilon": params.epsilon,
                "distinct_blocks": result.distinct_block_count,
                "distinct_bound": bound,
                "changed_fraction": result.changed_fraction,
                "unacceptable_fraction": result.unacceptable_fraction,
                "heavy_blocks": result.heavy_block_count,
            }
        )
        current = result.sequence
    code = emit_report(args, "determinize", {"steps": steps}, ok)
    write_sqz(args.out, current)  # after the report, so a failed report leaves no .sqz
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chowla-lab",
        description="Generate {-1,0,1} sequences and run correlation/entropy batteries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a sequence prefix into an .sqz file")
    p.add_argument("--kind", required=True, choices=list(_KINDS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bset", help="comma-separated squares, or 'prime-squares'")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--probs", help="comma-separated probabilities (2 or 3 values)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k0", type=int, default=2)
    p.set_defaults(func=cmd_generate)

    p = _reader(sub, "chowla", cmd_chowla, "run the multi-lag autocorrelation battery",
                ("json", "csv"))
    p.add_argument("--max-lag", type=int, default=5)
    p.add_argument("--max-r", type=int, default=2)
    p.add_argument("--n", type=int)
    p.add_argument("--tol", type=float, default=0.02)

    p = _reader(sub, "sarnak", cmd_sarnak, "weighted sum against an orbit sampler",
                ("json", "csv"))
    p.add_argument("--system", required=True, choices=list(_SYSTEMS))
    p.add_argument("--alpha", type=float)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--f", choices=["cos", "sin"], default="cos")
    p.add_argument("--pattern", help="comma-separated floats for --system periodic")
    p.add_argument("--weights", help=".sqz file for --system subshift")
    p.add_argument("--n", type=int)

    p = _reader(sub, "davenport", cmd_davenport, "twisted-sum maximum over a frequency grid",
                ("json", "csv"))
    p.add_argument("--n", type=int)
    p.add_argument("--grid", type=int, default=1000)

    p = _reader(sub, "entropy", cmd_entropy, "block complexity profile and entropy estimate",
                ("json", "csv"))
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--n-lo", type=int)
    p.add_argument("--n-hi", type=int)

    p = _reader(sub, "hat-test", cmd_hat_test, "randomized-sign extension audit")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--tol", type=float, default=0.01)

    p = sub.add_parser("toeplitz", help="Toeplitz construction pipeline")
    tsub = p.add_subparsers(dest="subcommand", required=True)
    pb = tsub.add_parser("build", help="copy a reference onto initial progressions")
    pb.add_argument("--q", type=int, required=True)
    pb.add_argument("--ref", required=True)
    pb.add_argument("--n", type=int)
    pb.add_argument("--out", required=True)
    pb.set_defaults(func=cmd_toeplitz_build)
    pa = tsub.add_parser("analyze", help="interval classification and entropy bound")
    pa.add_argument("--q", type=int, required=True)
    pa.add_argument("--m", type=int, required=True)
    pa.add_argument("--ell", type=int, required=True)
    pa.add_argument("--k", type=int, required=True)
    pa.add_argument("--ref", help="reference .sqz for correlation/entropy results")
    _report_flags(pa)
    pa.set_defaults(func=cmd_toeplitz_analyze)

    p = sub.add_parser("bounds", help="audit an entropy pair against the boundary curves")
    p.add_argument("--h-square", type=float, required=True)
    p.add_argument("--h-full", type=float, required=True)
    p.add_argument("--recurrent", action="store_true")
    _report_flags(p)
    p.set_defaults(func=cmd_bounds)

    p = _reader(sub, "determinize", cmd_determinize, "heavy-block recoding passes")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--n-block", type=int, required=True)
    p.add_argument("--big-n", type=int, required=True)
    p.add_argument("--steps", type=int, default=1,
                   help="number of passes; pass i uses epsilon/2**i")
    p.add_argument("--out", required=True)

    return parser


def _reader(sub, name: str, func, help: str, formats=("json",)) -> argparse.ArgumentParser:
    """A subcommand that reads --in and writes a report."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--in", dest="input", required=True)
    _report_flags(p, formats)
    p.set_defaults(func=func)
    return p


def _report_flags(p: argparse.ArgumentParser, formats=("json",)) -> None:
    p.add_argument("--report", choices=formats, default="json")
    p.add_argument("--out-report", help="report path (default: stdout)")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # before any work, which would be lost to a failed write
        for path in (getattr(args, "out", None), getattr(args, "out_report", None)):
            if path and not os.path.isdir(os.path.dirname(path) or "."):
                raise ValueError(f"output directory does not exist: {path}")
            if path and os.path.isdir(path):
                raise ValueError(f"output path is a directory: {path}")
        for option, table in (("kind", _KINDS), ("system", _SYSTEMS)):  # before any input is read
            value = getattr(args, option, None)
            needs = value and table[value][0]
            if needs and getattr(args, needs) is None:
                raise ValueError(f"--{needs} is required for --{option} {value}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
