"""chowla-lab benchmark: the README's CLI pipelines at paper scale.

Run from the repository root:

    python3 perfbench/run.py --workload mobius-battery --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload's CLI commands (``python -m chowla_lab.cli``
with ``src`` on PYTHONPATH), each in a fresh process, in passes until
``--seconds`` have elapsed (at least one pass), one process at a time.  It
reports the end-to-end metrics:

- ``wall_s``: median wall time of one pass;
- ``peak_rss_bytes_per_symbol``: median over passes of the highest
  ``ru_maxrss`` of any command in the pass, taken from ``os.wait4`` for that
  child alone, divided by the workload's N;
- ``setup_s``: median time of a fresh interpreter running
  ``import chowla_lab.cli`` on one CPU (see ``setup_times``), which every
  command pays;
- ``ok_ratio``: the workload's commands that exited as expected and whose
  outputs passed every check, divided by the commands attempted.  A failed
  set-up import makes the run incorrect without counting in the ratio.

``--trace 1`` replays the same commands in this process through
``chowla_lab.cli.main``: once to warm up, once untraced and once with a
span around every call into the measured modules (see ``spans.py``), then
measures the peak memory of single calls, each in a subprocess of its own
(``peak.py``).  It reports the per-layer metrics, self times per module and
the traced and untraced replay wall times; the spans go to
``.perfbench_out/``.

Every output is checked: the exact Mertens/Liouville oracles, the expected
exit codes, seed-independent invariants, and for a seed recorded in
``digests.json`` (see ``record_digests.py``) the digest of every report,
without its machine-dependent ``threads`` key, and of every ``.sqz`` file.

Each pass removes its ``.sqz`` files.  Commands that read a file written
earlier in the pass read it from the warm page cache; the benchmark never
drops the file cache.  The last line of stdout is the result object; the
line before it is the run's full record, with the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import inspect
import json
import os
import platform
import resource
import shutil
import signal
import struct
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from workloads import WORKLOADS, Command, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# Fresh imports timed before each pass: spread over the run, so that one
# busy moment of the machine does not set the median.
SETUP_SAMPLES_PER_PASS = 6
# Children are killed once a run has taken this long, so a hung command
# still ends the run within its 180 s limit.
RUN_BUDGET_S = 170.0
SQZ_HEADER = struct.Struct("<4sQ")
CHUNK = 1 << 20

# Per-layer names, in the order BENCHMARK.json lists them.  What each group
# should move: numbergen and seqcore -> wall_s and peak_rss_bytes_per_symbol
# on sieve-io (a small share of wall_s on mobius-battery); correlations ->
# wall_s on mobius-battery, no change on symbolic-blocks; empirics and
# symbolicgen -> wall_s and peak_rss_bytes_per_symbol on symbolic-blocks, no
# change on sieve-io; toeplitz -> peak_rss_bytes_per_symbol on sieve-io and
# wall_s on mobius-battery; cli -> wall_s and setup_s on every workload.
TIMED_CALLS = (
    "numbergen.mobius_prefix", "numbergen.liouville_prefix",
    "seqcore.write_sqz", "seqcore.read_sqz",
    "correlations.ch_battery", "correlations.chowla_sum", "correlations.sarnak_sum",
    "correlations.davenport_scan",
    "empirics.complexity_profile", "empirics.block_frequencies",
    "empirics.sign_extension_test",
    "symbolicgen.bernoulli_prefix", "symbolicgen.pair_code_prefix",
    "symbolicgen.determinize_step",
    "toeplitz.classify_initials", "toeplitz.build_toeplitz", "toeplitz.interval_analytics",
    "toeplitz.toeplitz_entropy_lower_bound", "toeplitz.toeplitz_correlation",
    "cli.emit_report",
)
PEAK_CASES = (
    "numbergen.mobius_prefix", "numbergen.liouville_prefix", "seqcore.read_sqz",
    "correlations.sarnak_sum", "empirics.complexity_profile",
    "symbolicgen.determinize_step", "toeplitz.classify_initials",
)
CLI_COMMANDS = (
    "generate", "chowla", "sarnak", "davenport", "toeplitz-analyze", "entropy",
    "hat-test", "determinize", "toeplitz-build",
)
LAYERS = ("numbergen", "symbolicgen", "seqcore", "correlations", "empirics", "toeplitz", "cli")


@dataclass(frozen=True)
class Launch:
    """How children start: their environment, and when they are killed."""

    env: dict
    deadline: float  # time.monotonic() after which a running child is killed


def launch() -> Launch:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return Launch(env, time.monotonic() + RUN_BUDGET_S)


def run_child(argv: list[str], cwd: Path, stem: str, how: Launch,
              cpus: set[int] | None = None) -> tuple[int, float, int]:
    """Run one child to completion; return (exit code, wall s, peak RSS bytes).

    The peak RSS is the child's own ``ru_maxrss`` from ``os.wait4``.  On
    Linux it also counts the launching process's RSS high-water mark, since
    the child starts as a copy of it, so it is exact only while this process
    stays smaller than the child; ``untraced_run`` records both.  ``cpus``
    restricts the child to those CPUs.
    """
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    start = time.perf_counter()
    with open(cwd / f"{stem}.out", "wb") as out, open(cwd / f"{stem}.err", "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=how.env,
                                preexec_fn=pin)
    timer = threading.Timer(max(1.0, how.deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, time.perf_counter() - start, usage.ru_maxrss * 1024


def clear(workdir: Path) -> None:
    for path in workdir.iterdir():
        path.unlink()


# ---------------------------------------------------------------- checks


def report_digest(text: bytes) -> tuple[str, dict]:
    """Digest of a JSON report without its ``threads`` key (os.cpu_count())."""
    report = json.loads(text)
    canonical = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if text.decode() != canonical:
        raise ValueError("report is not in the CLI's canonical JSON form")
    report.pop("threads", None)
    body = json.dumps(report, sort_keys=True, indent=2).encode()
    return hashlib.sha256(body).hexdigest(), report


def scan_sqz(path: Path) -> tuple[int, int, str, int, bool]:
    """(header length, symbols found, sha256, sum of symbols, all in {-1,0,1}).

    Reads small chunks, so that this process stays far smaller than any
    command it launches (see ``run_child``).
    """
    import numpy as np

    digest = hashlib.sha256()
    total = found = 0
    in_alphabet = True
    with open(path, "rb") as fh:
        header = fh.read(SQZ_HEADER.size)
        digest.update(header)
        if len(header) != SQZ_HEADER.size or header[:4] != b"SQZ1":
            return -1, 0, digest.hexdigest(), 0, False
        length = SQZ_HEADER.unpack(header)[1]
        while chunk := fh.read(CHUNK):
            digest.update(chunk)
            symbols = np.frombuffer(chunk, dtype=np.int8)
            total += int(symbols.sum(dtype=np.int64))
            found += symbols.size
            in_alphabet = in_alphabet and symbols.min() >= -1 and symbols.max() <= 1
    return length, found, digest.hexdigest(), total, bool(in_alphabet)


def check_outputs(workload: Workload, commands: tuple[Command, ...], workdir: Path,
                  rcs: list, expected: dict | None) -> tuple[list[str | None], dict]:
    """Check each command's exit code and outputs.

    Returns one problem per command (None when it is correct) and the
    digests found, keyed as in digests.json.
    """
    n = workload.n
    problems, found = [], {}
    for i, (cmd, rc) in enumerate(zip(commands, rcs)):
        errors = []
        if rc != cmd.expect_rc:
            errors.append(f"exit code {rc}, expected {cmd.expect_rc}")
        stdout = (workdir / f"{i}.out").read_bytes()
        key = f"{i}.{cmd.name}.stdout"
        if cmd.report:
            try:
                found[key], report = report_digest(stdout)
                if cmd.check is not None and (message := cmd.check(report)):
                    errors.append(message)
            except (ValueError, KeyError, TypeError) as exc:
                errors.append(f"report: {exc!r}")
        else:
            found[key] = hashlib.sha256(stdout).hexdigest()
            line = f"{cmd.out}: {n + SQZ_HEADER.size} bytes, {n} symbols\n".encode()
            if stdout != line:
                errors.append(f"status line {stdout[:200]!r}, expected {line!r}")
        if cmd.out is not None:
            path = workdir / cmd.out
            if not path.is_file():
                errors.append(f"{cmd.out} was not written")
            else:
                length, symbols, found[cmd.out], total, in_alphabet = scan_sqz(path)
                if length != n or symbols != n:
                    errors.append(f"{cmd.out}: header {length}, {symbols} symbols, expected {n}")
                if not in_alphabet:
                    errors.append(f"{cmd.out}: symbol outside {{-1,0,1}}")
                oracle = workload.oracles.get(cmd.out)
                if oracle is not None and total != oracle:
                    errors.append(f"{cmd.out}: sum {total}, expected {oracle}")
        if expected is not None:
            for name in (key, cmd.out):
                if name is not None and name in found and expected.get(name) != found[name]:
                    errors.append(f"{name}: digest differs from the recorded one")
        problems.append("; ".join(errors) or None)
    return problems, found


def recorded_digests(workload: Workload, seed: int) -> dict | None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    return table.get(workload.name, {}).get(str(seed) if workload.seeded else "any")


# ---------------------------------------------------------------- untraced


def cli_pass(commands: tuple[Command, ...], workdir: Path, how: Launch) -> tuple[float, list[dict]]:
    rows = []
    start = time.perf_counter()
    for i, cmd in enumerate(commands):
        argv = [sys.executable, "-m", "chowla_lab.cli", *cmd.argv]
        rc, wall, rss = run_child(argv, workdir, str(i), how)
        rows.append({"command": cmd.name, "rc": rc, "wall_s": wall, "max_rss_bytes": rss})
    return time.perf_counter() - start, rows


def setup_times(workdir: Path, how: Launch, count: int) -> tuple[list, list, list[str]]:
    """Wall times of ``count`` fresh interpreters importing chowla_lab.cli.

    Each runs on one CPU.  With more, numpy's OpenBLAS starts a worker
    thread that busy-waits, and the import then takes up to a third longer
    or not depending on whether the host lets that thread run beside the
    main one; pinned, the time follows the import's own work.  Beside each
    import a bare interpreter start (``-c pass``) is timed the same way, so
    that a change of host speed can be told from a change of the import.
    Returns the import times, the bare start times and any failures.
    """
    cpu = {min(os.sched_getaffinity(0))}
    imports, bare, failures = [], [], []
    for _ in range(count):
        rc, wall, _ = run_child([sys.executable, "-c", "import chowla_lab.cli"], workdir,
                                "setup", how, cpu)
        imports.append(wall)
        if rc != 0:
            failures.append(f"import chowla_lab.cli: exit code {rc}")
        rc, wall, _ = run_child([sys.executable, "-c", "pass"], workdir, "setup", how, cpu)
        bare.append(wall)
        if rc != 0:
            failures.append(f"bare interpreter start: exit code {rc}")
    clear(workdir)
    return imports, bare, failures


def untraced_run(workload: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    how = launch()
    commands = workload.commands(seed)
    expected = recorded_digests(workload, seed)
    setup_times(workdir, how, 1)  # warms the file cache and writes .pyc files
    setup, bare, walls, peaks, passes, failures = [], [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        imports, starts, bad = setup_times(workdir, how, SETUP_SAMPLES_PER_PASS)
        setup += imports
        bare += starts
        failures += bad
        wall, rows = cli_pass(commands, workdir, how)
        problems, _ = check_outputs(workload, commands, workdir, [r["rc"] for r in rows],
                                    expected)
        clear(workdir)
        walls.append(wall)
        peaks.append(max(r["max_rss_bytes"] for r in rows) / workload.n)
        passes.append({"wall_s": wall, "commands": rows})
        attempted += len(rows)
        failed += sum(p is not None for p in problems)
        failures += [f"{c.name}: {p}" for c, p in zip(commands, problems) if p]
    metrics = {
        "wall_s": (median(walls), "s"),
        "peak_rss_bytes_per_symbol": (median(peaks), "B/symbol"),
        "setup_s": (median(setup), "s"),
        "ok_ratio": ((attempted - failed) / attempted, "fraction"),
    }
    peak_rss = max(r["max_rss_bytes"] for p in passes for r in p["commands"])
    l3 = _cache_sizes().get("l3_bytes")
    record = {
        "passes": len(walls),
        "setup_samples": setup,
        "bare_start_samples": bare,
        "pass_records": passes,
        "digests_checked": expected is not None,
        "failures": failures,
        "working_set": {
            "peak_rss_bytes": peak_rss,
            "prefix_bytes": workload.n,
            "peak_exceeds_4x_l3": l3 is not None and peak_rss > 4 * l3,
            "prefix_exceeds_4x_l3": l3 is not None and workload.n > 4 * l3,
        },
        # Floor under every child's ru_maxrss (see run_child).
        "launcher_max_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
    }
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": metrics, "record": record}


# ---------------------------------------------------------------- traced


def _run_main(cli, argv: tuple[str, ...]):
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the replay goes on; the check reports the command as failed
        traceback.print_exc()
        return None


def replay(commands: tuple[Command, ...], workdir: Path, tracer=None) -> tuple[float, list]:
    """Run the commands in this process through cli.main, as the CLI would."""
    from chowla_lab import cli

    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    rcs = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        start = time.perf_counter()
        with span("pass"):
            for i, cmd in enumerate(commands):
                with open(f"{i}.out", "w", encoding="utf-8") as out, \
                        open(f"{i}.err", "w", encoding="utf-8") as err, \
                        redirect_stdout(out), redirect_stderr(err), span(f"cmd.{cmd.name}"):
                    rcs.append(_run_main(cli, cmd.argv))
        wall = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    return wall, rcs


class Counts:
    """Exact work counts taken from the arguments and results of traced calls."""

    def __init__(self):
        self.specs = 0
        self.computed_bytes = 0
        self.sign_tests = []
        self.numbergen_symbols = 0
        self.sqz_bytes = 0

    def hooks(self) -> dict:
        return {
            "correlations.ch_battery": self._battery,
            "empirics.sign_extension_test": self._sign_test,
            "numbergen.mobius_prefix": self._generated,
            "numbergen.liouville_prefix": self._generated,
            "seqcore.read_sqz": lambda args, kwargs, seq: self._sqz(len(seq)),
            "seqcore.write_sqz": lambda args, kwargs, _: self._sqz(len(args[1])),
        }

    def _battery(self, args, kwargs, report) -> None:
        # The int8 path moves 3 bytes per symbol per factor z^{i_s}: the copy of
        # the first (2N), one in-place multiply per further factor (3N each)
        # and the final sum (N).
        self.specs += len(report.entries)
        self.computed_bytes += 3 * report.n * sum(sum(e.spec.exponents) for e in report.entries)

    def _sign_test(self, args, kwargs, _) -> None:
        import chowla_lab as cl

        bound = inspect.signature(cl.sign_extension_test).bind(*args, **kwargs)
        bound.apply_defaults()
        self.sign_tests.append(bound.arguments)

    def _generated(self, args, kwargs, seq) -> None:
        self.numbergen_symbols += len(seq)

    def _sqz(self, symbols: int) -> None:
        self.sqz_bytes += symbols + SQZ_HEADER.size

    def sign_patterns(self) -> int:
        """Sign patterns the sign test's loop visits: 2^|supp| per audited squared block."""
        import chowla_lab as cl

        total = 0
        for a in self.sign_tests:
            squared = cl.block_frequencies(cl.square_map(a["z"]), a["k"])
            threshold = a["audit_factor"] * a["tol"]
            total += sum(2 ** len(block.support)
                         for ell in range(1, a["k"] + 1)
                         for block, freq in squared.items(ell) if freq > threshold)
        return total


def peak_case(workload: Workload, case: str, workdir: Path, how: Launch) -> dict:
    argv = [sys.executable, str(HERE / "peak.py"), workload.name, case]
    rc, wall, _ = run_child(argv, workdir, "peak", how)
    if rc != 0:
        error = (workdir / "peak.err").read_text(errors="replace")[-500:]
        return {"error": f"exit code {rc}: {error}", "wall_s": wall}
    return {**json.loads((workdir / "peak.out").read_text()), "wall_s": wall}


def traced_run(workload: Workload, seed: int, workdir: Path) -> dict:
    from spans import Tracer, instrument

    sys.path.insert(0, str(SRC))
    from chowla_lab import cli  # noqa: F401  (imported before any replay is timed)

    how = launch()
    commands = workload.commands(seed)
    expected = recorded_digests(workload, seed)

    # The first replay's time is dropped: it alone pays first-call costs (lazy
    # imports, allocator growth), which would otherwise fall on the untraced
    # side only and understate the tracing overhead.
    problems = []
    for _ in range(2):
        untraced_wall, rcs = replay(commands, workdir)
        problems += check_outputs(workload, commands, workdir, rcs, expected)[0]
        clear(workdir)

    tracer, counts = Tracer(), Counts()
    restore = instrument(tracer, counts.hooks())
    try:
        traced_wall, rcs = replay(commands, workdir, tracer)
    finally:
        restore()
    traced_problems, _ = check_outputs(workload, commands, workdir, rcs, expected)
    problems += traced_problems
    report_bytes = sum((workdir / f"{i}.out").stat().st_size
                       for i, c in enumerate(commands) if c.report)
    peaks = {case: peak_case(workload, case, workdir, how) for case in workload.peak_cases}
    clear(workdir)

    selfs = tracer.self_times()
    totals, layer_self, spans = {}, dict.fromkeys(LAYERS, 0.0), []
    for span, self_s in zip(tracer.spans, selfs):
        totals[span.name] = totals.get(span.name, 0.0) + span.end - span.start
        layer = "cli" if span.name.startswith("cmd.") else span.name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += self_s
        spans.append({"name": span.name, "start": span.start, "end": span.end,
                      "parent": span.parent, "self_s": self_s})

    numbergen_s = totals.get("numbergen.mobius_prefix", 0.0) + totals.get(
        "numbergen.liouville_prefix", 0.0)
    sqz_s = totals.get("seqcore.read_sqz", 0.0) + totals.get("seqcore.write_sqz", 0.0)
    metrics = {f"{name}.s": (totals.get(name, 0.0), "s") for name in TIMED_CALLS}
    measured = {case: p for case, p in peaks.items() if "error" not in p}
    metrics.update({
        f"{case}.peak_bytes_per_symbol":
            (measured[case]["peak_bytes"] / measured[case]["symbols"] if case in measured
             else 0.0, "B/symbol")
        for case in PEAK_CASES
    })
    metrics.update({
        "numbergen.symbols_per_s": (counts.numbergen_symbols / numbergen_s if numbergen_s
                                    else 0.0, "symbol/s"),
        "seqcore.bytes_per_s": (counts.sqz_bytes / sqz_s if sqz_s else 0.0, "B/s"),
        "correlations.ch_battery.specs": (counts.specs, "count"),
        "correlations.ch_battery.computed_bytes": (counts.computed_bytes, "B"),
        "empirics.sign_extension_test.patterns": (counts.sign_patterns(), "count"),
        "cli.report_bytes": (report_bytes, "B"),
    })
    metrics.update({f"cmd.{c}.s": (totals.get(f"cmd.{c}", 0.0), "s") for c in CLI_COMMANDS})
    metrics.update({f"{layer}.self_s": (s, "s") for layer, s in layer_self.items()})
    metrics.update({
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    })

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"trace-{workload.name}-seed{seed}.json"
    spans_path.write_text(json.dumps(spans) + "\n")
    failures = [f"{c.name}: {p}" for c, p in zip(commands * 3, problems) if p]
    failures += [f"peak case {case}: {p['error']}" for case, p in peaks.items() if "error" in p]
    record = {
        "spans_file": str(spans_path.relative_to(ROOT)),
        "peak_cases": peaks,
        "digests_checked": expected is not None,
        "failures": failures,
        "note": "replay order: an untimed warm-up replay, then the untraced replay "
                "(trace.untraced_wall_s), then the traced one (trace.wall_s); peak_bytes is the tracemalloc peak of the call alone, in a fresh "
                "process, with its inputs loaded beforehand",
    }
    return {"correct": not failures, "attempted": 3 * len(commands) + len(peaks),
            "failed": len(failures), "metrics": metrics, "record": record}


# ---------------------------------------------------------------- output


def _cache_sizes() -> dict[str, int]:
    """Total bytes per cache level over distinct cache instances, as lscpu reports."""
    seen, sizes = set(), {}
    for index in Path("/sys/devices/system/cpu").glob("cpu[0-9]*/cache/index[0-9]*"):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction" or (level, shared) in seen:
            continue
        seen.add((level, shared))
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        sizes[f"l{level}_bytes"] = sizes.get(f"l{level}_bytes", 0) + int(
            size.rstrip("KMG")) * scale
    return sizes


def _proc_field(path: str, key: str) -> str | None:
    try:
        for line in Path(path).read_text().splitlines():
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment() -> dict:
    mem = _proc_field("/proc/meminfo", "MemTotal")
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        **_cache_sizes(),
        "mem_total_bytes": int(mem.split()[0]) * 1024 if mem else None,
        "workload_n": {w.name: w.n for w in WORKLOADS.values()},
        "page_cache": "warm: .sqz reads follow writes in the same pass; the file cache "
                      "is never dropped",
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running child is killed and reaped and
    # the working directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "chowla_lab" / "cli.py").is_file():
        print(f"error: no chowla_lab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    declared = declared_metrics(bool(args.trace))

    workdir = WORK / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            result = traced_run(workload, args.seed, workdir)
        else:
            result = untraced_run(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    produced = {name: m["unit"] for name, m in metrics.items()}
    if produced != declared:
        raise RuntimeError(f"metrics differ from {BENCHMARK.name}: "
                           f"{sorted(set(produced.items()) ^ set(declared.items()))}")
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "why": workload.why, "environment": environment(), **result["record"]}
    print(json.dumps(record))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
