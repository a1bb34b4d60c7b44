"""Write the stored per-trial references the benchmark checks runs against.

    python3 perfbench/make_refs.py --workload train --seeds 0-11

Runs each seed once through the same command line as the benchmark and
records its trials.csv sha256 and per-trial (final_loss, gen_error,
diverged) in ``perfbench/refs/<workload>.json``, one seed per line. Rerun it
only for a deliberate change of results, and say so where the change is
recorded.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import results
import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-11")
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    w = run.WORKLOADS[args.workload]
    config = json.loads(run.config_path(args.workload).read_text())
    entries = {}
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for seed in seeds:
            runner = run.Runner(time.perf_counter())
            rep = run.run_rep(runner, args.workload, w, seed, run.nproc(), Path(tmp), seed,
                              traced=False)
            expected = [(d, i) for d in run.distributions(w) for i in range(config["trials"])]
            if rep.sha256 is None or rep.bad_lines or set(rep.rows) != set(expected):
                print(f"seed {seed}: run failed or trials.csv incomplete", file=sys.stderr)
                return 1
            entries[str(seed)] = {
                "sha256": rep.sha256,
                "trials": {d: [rep.rows[d, i].to_json() for i in range(config["trials"])]
                           for d in run.distributions(w)},
            }
            print(f"seed {seed}: {rep.wall_s:.2f} s {rep.sha256}")
    run.WORK.rmdir()
    lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items())
    path = run.BENCH / "refs" / f"{args.workload}.json"
    path.write_text(f'{{"config": {json.dumps(config)}, "experiment": "{w.experiment}", '
                    f'"seeds": {{\n{lines}\n}}}}\n')
    results.load_refs(path, config, seeds[0])  # the store reads back
    return 0


if __name__ == "__main__":
    sys.exit(main())
