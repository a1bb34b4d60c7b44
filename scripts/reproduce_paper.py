#!/usr/bin/env python3
"""Reproduce both recovery-error tables at the full reference configuration.

Writes results/table1/ and results/table2/ (trials.csv, summary.csv,
manifest.json). At 100 trials per distribution (600 trials) it took 59 s with
--workers 2 on a 2-core x86_64 Xeon host with AVX-512 (26.0 s for table1 and
32.9 s for table2, the manifests' wall times); --trials 20 does a fifth of the
work and still satisfies the acceptance bands.
"""

import argparse
import os
import sys

from ddpm1d.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=100, help="trials per distribution")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--workers", type=int,
                        help="trial worker processes (default: the CPUs this process may use)")
    parser.add_argument("--out", default="results", help="output root directory")
    args = parser.parse_args()

    for experiment in ("table1", "table2"):
        print(f"=== {experiment} ({args.trials} trials/distribution) ===")
        argv = [
            "run",
            "--experiment", experiment,
            "--trials", str(args.trials),
            "--seed", str(args.seed),
            "--out", os.path.join(args.out, experiment),
        ]
        if args.workers is not None:
            argv += ["--workers", str(args.workers)]
        code = cli_main(argv)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
