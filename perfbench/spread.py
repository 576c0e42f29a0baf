"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sieve-io --seeds 1-10 [--trace 1]

For every metric this prints the median over the runs and the distance
between the first and third quartiles (``statistics.quantiles(values,
n=4)``) as a share of the median, beside the metric's bound in
BENCHMARK.json.  With ``--trace 1`` it also prints, per seed, the values of
the exact work counts, which must repeat between runs of one seed (list a
seed twice, as in ``--seeds 3,3``).  Each run's result line is appended to
``.perfbench_out/spread-<workload>-trace<0|1>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCHMARK, HERE, OUT, ROOT

EXACT_COUNTS = (
    "correlations.ch_battery.specs",
    "correlations.ch_battery.computed_bytes",
    "empirics.sign_extension_test.patterns",
)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    OUT.mkdir(exist_ok=True)
    log = OUT / f"spread-{args.workload}-trace{args.trace}.jsonl"
    results = []
    for seed in parse_seeds(args.seeds):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": seed, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        results.append((seed, result))

    print(f"{'metric':48} {'median':>14} {'spread':>8} {'bound/3':>8}")
    for name in results[0][1]["metrics"]:
        values = [r["metrics"][name]["value"] for _, r in results]
        mid = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
        share = (q3 - q1) / mid if mid else float("nan")
        bound = bounds.get(name)
        third = f"{bound / 3:8.4f}" if bound is not None else " " * 8
        print(f"{name:48} {mid:14.6g} {share:8.4f} {third}")
    if args.trace:
        for name in EXACT_COUNTS:
            by_seed = {}
            for seed, r in results:
                by_seed.setdefault(seed, set()).add(r["metrics"][name]["value"])
            repeats = all(len(v) == 1 for v in by_seed.values())
            print(f"{name}: {dict(sorted((s, sorted(v)) for s, v in by_seed.items()))} "
                  f"{'repeats' if repeats else 'DIFFERS'}")
    return 0 if all(r["correct"] for _, r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
