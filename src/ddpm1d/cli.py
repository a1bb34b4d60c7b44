"""Command-line surface: config parsing, the run/check/selftest subcommands,
and CSV/manifest serialization through one writer, each file whole or absent.

Exit codes: 0 success, 1 configuration or usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
import time
import traceback
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import TextIO

# before numpy loads: nothing calls BLAS, and OpenBLAS's idle threads would be forked
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__, kernel
from .errors import ConfigError, DivergenceError
from .experiment import (
    REVERSE_NOISE_POLICIES,
    ExperimentConfig,
    SummaryRow,
    TrialResult,
    run_suite,
    table1_distributions,
    table2_distributions,
)
from .schedule import retention

EXPERIMENTS = ("table1", "table2", "single")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1
    def error(self, message):
        raise _UsageError(message)


def parse_config(path: str | Path | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Resolve a config from an optional JSON file plus flag overrides.

    Flags win over file values; anything unspecified falls back to the
    reference defaults baked into ExperimentConfig.
    """
    data: dict = {}
    if path is not None:
        p = Path(path)
        try:  # any readable path: a file, a pipe, /dev/stdin
            data = json.loads(p.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
        except ConfigError:
            raise
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {p}") from None
        except OSError as exc:  # a directory, no permission
            raise ConfigError(f"cannot read config file {p}: {exc.strerror}") from exc
        except (ValueError, RecursionError) as exc:  # bad UTF-8, long ints, deep nesting
            raise ConfigError(f"invalid JSON in {p}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config root in {p} must be a JSON object")
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig.from_dict(data)


def _unique_keys(pairs: list) -> dict:
    """A JSON object; a key named twice, which json.loads would read last-wins, raises."""
    first = {}  # each key's first index, so that the check takes linear time
    for i, (key, _) in enumerate(pairs):
        if first.setdefault(key, i) != i:
            raise ConfigError(f"config key {key!r} appears more than once")
    return dict(pairs)


def _fmt(x: float) -> str:
    return format(x, ".9g")


def _write(path: str | Path, fill: Callable[[TextIO], object]) -> Path:
    """Write ``path`` whole or not at all: ``fill`` writes into a new file beside it,
    which then replaces it. Every file a run writes comes through here, the manifest last."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{os.urandom(8).hex()}.tmp")  # path.name may use up NAME_MAX
    try:
        with open(tmp, "x", newline="") as f:  # a plain open's mode; mkstemp's is 0600
            fill(f)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # already gone once it replaced the target
    return path


def _write_rows(path: Path, header: list[str], rows: Iterable[list]) -> Path:
    return _write(path, lambda f: csv.writer(f).writerows(itertools.chain([header], rows)))


def write_csv(
    trial_rows: list[tuple[str, str, TrialResult]],
    summary_rows: list[tuple[str, SummaryRow]],
    out_dir: str | Path,
) -> tuple[Path, Path]:
    """Write trials.csv and summary.csv; rows keep the caller's canonical
    (experiment, distribution, trial) order. Reals carry 9 significant digits."""
    out = Path(out_dir)
    trials = ([experiment, distribution, r.trial_index, r.seed_used, _fmt(r.final_epoch_loss),
               _fmt(r.gen_error), "true" if r.diverged else "false"]
              for experiment, distribution, r in trial_rows)
    summaries = ([experiment, s.label, s.n_trials, s.n_diverged, _fmt(s.mean_error),
                  _fmt(s.std_error)] for experiment, s in summary_rows)
    return (_write_rows(out / "trials.csv", ["experiment", "distribution", "trial", "seed",
                                             "final_loss", "gen_error", "diverged"], trials),
            _write_rows(out / "summary.csv", ["experiment", "distribution", "n_trials",
                                              "n_diverged", "mean_error", "std_error"], summaries))


def write_manifest(
    cfg: ExperimentConfig, out_dir: str | Path, wall_time: float, workers: int,
    experiment: str,
) -> Path:
    """``config_echo`` fed back through ``--config``, with ``--experiment``
    set to ``experiment``, reruns the same trials; ``kernel`` is the loaded
    kernel build's own record of its source, compiler and flags."""
    manifest = {
        "config_echo": cfg.to_dict(),
        "experiment": experiment,
        "artifact_version": __version__,
        "kernel": kernel.default().provenance,
        "wall_time_seconds": wall_time,
        "worker_count": workers,
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    return _write(Path(out_dir) / "manifest.json", lambda f: f.write(text))


def _can_become(path: str, directory: bool) -> bool:
    """Whether ``path`` is non-empty and is, or creating its parents can make it, a directory
    (else a file). Outputs are written after the last trial, so _cmd_run asks before the first."""
    p = Path(path).absolute()
    nearest = next(q for q in (p, *p.parents) if q.exists())
    return bool(path) and nearest.is_dir() == (directory or nearest != p)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ddpm1d", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="train and evaluate an experiment")
    run.add_argument("--config", help="JSON config file")
    run.add_argument("--experiment", choices=EXPERIMENTS, default="single")
    run.add_argument("--trials", type=int)
    run.add_argument("--seed", type=int, dest="base_seed", metavar="SEED",
                     help="base seed (config key base_seed)")
    # the CPUs this process may run on, which taskset or a cgroup can narrow
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    run.add_argument("--workers", type=int, default=cpus,
                     help="trial worker processes; never affects results")
    run.add_argument("--out", default="results", help="output directory")
    run.add_argument("--normalize-mixture", action="store_const", const=True,
                     help="rescale mixture noise to unit variance")
    run.add_argument("--reverse-noise", choices=REVERSE_NOISE_POLICIES,
                     help="distribution of reverse-step and init noise")
    run.add_argument("--dump-weights", metavar="PATH",
                     help="write trial 0 weights of the first distribution as flat JSON")
    run.add_argument("--quiet", action="store_true", help="suppress per-trial progress")

    check = sub.add_parser("check", help="print schedule constants")
    check.add_argument("--config", help="JSON config file")

    sub.add_parser("selftest", help="reproduce five reference trials.csv rows")
    return parser


def _overrides(args) -> dict:
    """The parsed flags named after config keys; unset ones are None."""
    keys = ExperimentConfig().to_dict()
    return {k: v for k, v in vars(args).items() if k in keys}


def _cmd_check(args) -> int:
    s = parse_config(args.config).schedule()
    print(f"beta[1]    = {_fmt(s.beta[0])}")
    print(f"beta[{s.T}]  = {_fmt(s.beta[-1])}")
    print(f"sqrt(alpha_bar[{s.T}]) = {_fmt(retention(s, s.T))}")
    return 0


# (final_loss, gen_error) of trial 0 at epochs=100, base_seed 0, as trials.csv
# holds them. A change that moves bits on purpose copies them from the FAIL lines.
SELFTEST_ROWS = {
    "gaussian": ("0.430298293", "0.899173611"),
    "uniform": ("0.322427523", "0.680304473"),
    "arcsine": ("0.31386241", "0.686702831"),
    "mix0.9": ("1.809225", "0.858957943"),
    "mix0.5": ("6.70766592", "1.77048746"),
}


def _cmd_selftest() -> int:
    """Whether this host reproduces SELFTEST_ROWS, one trial per noise family."""
    distributions = table1_distributions() + table2_distributions()[1:]
    runs = run_suite(ExperimentConfig(epochs=100, trials=1), distributions, workers=1)
    passed = True
    for run in runs:
        r = run.results[0]
        row = (_fmt(r.final_epoch_loss), _fmt(r.gen_error))
        line = f"{run.label}: final_loss={row[0]} gen_error={row[1]}"
        ref = SELFTEST_ROWS[run.label]
        if row == ref:
            print(f"PASS {line}")
        else:
            print(f"FAIL {line} (reference final_loss={ref[0]} gen_error={ref[1]})")
            passed = False
    return 0 if passed else 2


def _cmd_run(args) -> int:
    cfg = parse_config(args.config, _overrides(args))
    for flag, path, kind in (("--out", args.out, "a directory"),
                             ("--dump-weights", args.dump_weights, "a file")):
        if path is not None and not _can_become(path, kind == "a directory"):
            raise ConfigError(f"{flag} {path} is not {kind} and cannot become one")
    dump, out = Path(args.dump_weights or "").resolve(), Path(args.out).resolve()
    files = {out / name for name in ("trials.csv", "summary.csv", "manifest.json")}
    if args.dump_weights and (dump in (out, *out.parents) or files & {dump, *dump.parents}):
        raise ConfigError(f"--dump-weights {args.dump_weights} collides with --out {args.out}")
    if args.experiment == "table1":
        distributions = table1_distributions()
    elif args.experiment == "table2":
        distributions = table2_distributions()
    else:
        distributions = [(cfg.noise.label(), cfg.noise)]

    progress = None
    if not args.quiet:
        def progress(label: str, r: TrialResult) -> None:
            status = f" DIVERGED ({r.divergence})" if r.diverged else ""
            print(
                f"[{label}] trial {r.trial_index}: loss={_fmt(r.final_epoch_loss)} "
                f"err={_fmt(r.gen_error)}{status}",
                file=sys.stderr,
            )

    start = time.perf_counter()
    runs = run_suite(cfg, distributions, workers=args.workers, on_result=progress)
    wall = time.perf_counter() - start

    trial_rows = [(args.experiment, run.label, r) for run in runs for r in run.results]
    summary_rows = [(args.experiment, run.summary) for run in runs]
    weights = runs[0].results[0].params
    if args.dump_weights and weights is None:  # before any write, so a failed dump leaves none
        raise DivergenceError("cannot dump weights: trial 0 diverged during training")
    # a directory with a manifest holds the run it describes, so the old one goes first
    (Path(args.out) / "manifest.json").unlink(missing_ok=True)
    if args.dump_weights:
        _write(args.dump_weights, lambda f: f.write(json.dumps(list(weights)) + "\n"))
    write_csv(trial_rows, summary_rows, args.out)
    write_manifest(cfg, args.out, wall, args.workers, args.experiment)

    for _, s in summary_rows:
        div = f" diverged={s.n_diverged}" if s.n_diverged else ""
        print(f"{s.label}: mean_error={_fmt(s.mean_error)} "
              f"std={_fmt(s.std_error)} n={s.n_trials}{div}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "selftest":
            return _cmd_selftest()
        return _cmd_run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a runtime failure; an unexpected one shows its traceback
        if not isinstance(exc, (OSError, DivergenceError)):
            traceback.print_exc()
        print(f"runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
