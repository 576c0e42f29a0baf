"""Record the digest of every report and .sqz output into digests.json.

    python3 perfbench/record_digests.py --seeds 0-31

Runs one CLI pass of each workload (of ``symbolic-blocks`` once per seed)
and stores what ``run.py`` compares later runs with.  Run it only on a
commit whose outputs are trusted: a pass whose exit codes, oracles or
invariants fail is refused and nothing is written.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import DIGESTS, WORK, check_outputs, clear, cli_pass, launch
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-31", help="seed range FIRST-LAST for seeded workloads")
    args = parser.parse_args(argv)
    first, last = (int(v) for v in args.seeds.split("-"))
    workdir = WORK / f"record-{os.getpid()}"
    workdir.mkdir(parents=True)
    table = {}
    try:
        for workload in WORKLOADS.values():
            seeds = range(first, last + 1) if workload.seeded else (first,)
            for seed in seeds:
                commands = workload.commands(seed)
                _, rows = cli_pass(commands, workdir, launch())
                problems, found = check_outputs(workload, commands, workdir,
                                                [r["rc"] for r in rows], None)
                clear(workdir)
                if any(problems):
                    print(f"error: {workload.name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                key = str(seed) if workload.seeded else "any"
                table.setdefault(workload.name, {})[key] = found
                print(f"{workload.name} {key}: {len(found)} digests", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
