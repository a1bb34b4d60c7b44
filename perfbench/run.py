"""ddpm1d benchmark: run one workload through the real command line and print
its metrics.

    python3 perfbench/run.py --workload train|sample|fanout --seed N \
        --seconds S --trace 0|1

Each measured repetition is a fresh ``python -m ddpm1d run --config
perfbench/workloads/<workload>.json --experiment ... --seed N --workers
<nproc> --quiet --out <tmp>``; repetitions run until the next one would end
after ``--seconds``. With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` untraced and
traced repetitions alternate and it carries the per-layer metrics. Metric
names and units come from ``BENCHMARK.json`` at the repository root. Temporary
output goes to ``.perfbench_work/`` there and is removed on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import results
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

TABLE1 = ("gaussian", "uniform", "arcsine")
TABLE2 = ("gaussian", "mix0.9", "mix0.5")

# Fresh `python -m ddpm1d check` runs per benchmark run; setup_s is their
# median. They are spread over the run's window, between workload reps,
# because the speed of a shared machine can change from one second to the next.
SETUP_REPS = 11
# Every subprocess is killed once the whole run has taken this long, so the
# benchmark ends within its 180-second limit even if the program hangs.
RUN_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``band`` is the plausible per-trial gen_error for trials that have no
    stored reference, and ``spot_checks`` how many of those trials are
    recomputed in-process through ``experiment.run_trial`` and held to the
    reference tolerance. ``prediction`` names the self-time group the traced
    run expects to be larger than every layer's remaining self time.
    """

    experiment: str
    band: tuple[float, float]
    spot_checks: int
    prediction: str
    in_group: Callable[[str, str | None], bool]


WORKLOADS = {
    "train": Workload(
        "table1",
        (0.0, 0.2), 1,
        "mlp.loss_and_grad_arrays + mlp.adam_step",
        lambda name, tag: name in ("mlp.loss_and_grad_arrays", "mlp.adam_step"),
    ),
    "sample": Workload(
        "table2",
        (0.0, 10.0), 3,
        "diffusion.generate_block with its children",
        lambda name, tag: tag == "generate",
    ),
    "fanout": Workload(
        "table1",
        (0.0, 30.0), 6,
        "pool, stream and CSV costs",
        lambda name, tag: name in ("experiment.run_trials", "experiment.pool.start",
                                   "experiment.run_suite", "prng.seed_stream",
                                   "cli.write_csv"),
    ),
}


def distributions(w: Workload) -> tuple[str, ...]:
    return TABLE1 if w.experiment == "table1" else TABLE2


def config_path(name: str) -> Path:
    return BENCH / "workloads" / f"{name}.json"


@dataclass
class Rep:
    """One `ddpm1d run` subprocess and what it left behind."""

    traced: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    sha256: str | None = None
    rows: dict = field(default_factory=dict)
    bad_lines: int = 0
    spans: list = field(default_factory=list)


class Runner:
    """Starts subprocesses with the checkout's ``src`` on the import path and
    kills each one's process group if the run's time limit passes."""

    def __init__(self, started: float):
        self.started = started
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env

    def run(self, cmd: list[str], log) -> tuple[float, float, float, int]:
        """Run ``cmd`` to completion with its output going to ``log``; return
        (wall s, user+sys CPU s of it and its reaped children, peak RSS MB of
        any one of them, exit code)."""
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise TimeoutError("benchmark time limit reached")
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        killer = threading.Timer(remaining, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def cli_args(name: str, w: Workload, seed: int, workers: int, out: Path) -> list[str]:
    return ["run", "--config", str(config_path(name)),
            "--experiment", w.experiment, "--seed", str(seed), "--workers", str(workers),
            "--quiet", "--out", str(out)]


def run_rep(runner: Runner, name: str, w: Workload, seed: int, workers: int,
            tmp: Path, index: int, traced: bool) -> Rep:
    out = tmp / f"rep{index}"
    span_dir = tmp / f"spans{index}"
    if traced:
        span_dir.mkdir()
        cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(span_dir)]
    else:
        cmd = [sys.executable, "-m", "ddpm1d"]
    log = tmp / f"rep{index}.log"
    with open(log, "wb") as f:
        wall, cpu, rss, code = runner.run(cmd + cli_args(name, w, seed, workers, out), f)
    rep = Rep(traced, wall, cpu, rss)
    trials = out / "trials.csv"
    if code == 0 and trials.is_file():
        rep.sha256, rep.rows, rep.bad_lines = results.read_trials(trials, w.experiment, seed)
    else:
        tail = log.read_text(errors="replace")[-2000:]
        print(f"rep {index} exited with code {code}:\n{tail}", file=sys.stderr)
    if traced:
        main_file = span_dir / "main.json"
        if main_file.is_file():
            rep.spans.append(json.loads(main_file.read_text()))
            for p in sorted(span_dir.glob("*.jsonl")):
                rep.spans.extend(json.loads(line) for line in p.read_text().splitlines())
        shutil.rmtree(span_dir)
    shutil.rmtree(out, ignore_errors=True)
    log.unlink()
    return rep


def measure_setup(runner: Runner) -> float:
    """Wall time of one fresh `python -m ddpm1d check`; raises if it fails."""
    wall, _, _, code = runner.run([sys.executable, "-m", "ddpm1d", "check"], subprocess.DEVNULL)
    if code != 0:
        raise RuntimeError(f"`python -m ddpm1d check` exited with code {code}")
    return wall


def spot_check_refs(name: str, w: Workload, seed: int, expected: list) -> dict:
    """Recompute ``w.spot_checks`` trials (chosen by seed) in this process
    through ``experiment.run_trial``, as references for a seed without a
    stored one."""
    sys.path.insert(0, str(SRC))
    from ddpm1d import cli, experiment

    cfg = cli.parse_config(config_path(name), {"base_seed": seed})
    specs = dict(experiment.table1_distributions() if w.experiment == "table1"
                 else experiment.table2_distributions(cfg.normalize_mixture))
    refs = {}
    for dist, trial in random.Random(seed).sample(expected, w.spot_checks):
        r, _ = experiment.run_trial(replace(cfg, noise=specs[dist]), trial)
        refs[dist, trial] = results.Row(r.final_epoch_loss, r.gen_error, r.diverged)
    return refs


def provenance(seed: int, workers: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    git = {"rev": None, "dirty": None}
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                   cwd=ROOT, capture_output=True, text=True, timeout=10)
            git = {"rev": rev.stdout.strip() or None, "dirty": bool(dirty.stdout.strip())}
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_hash = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        src_hash.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_rev": git["rev"],
        "git_dirty": git["dirty"],
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
        "workers": workers,
        "machine": platform.machine(),
    }


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def declared(kind: str) -> dict[str, dict]:
    """Entries of ``kind`` (``workloads``, ``end_to_end`` or ``per_layer``)
    in BENCHMARK.json, by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry for entry in spec[kind]}


def end_to_end(reps: list[Rep], setup: list[float], first: Rep, failed: int,
               attempted: int) -> dict[str, float]:
    rows = list(first.rows.values())
    good = [r.gen_error for r in rows if not r.diverged]
    return {
        "wall_s": statistics.median(r.wall_s for r in reps),
        "cpu_s": statistics.median(r.cpu_s for r in reps),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
        "gen_error_mean": statistics.fmean(good) if good else 0.0,
        "ok_frac": 1.0 - failed / attempted,
        "converged_frac": len(good) / len(rows) if rows else 0.0,
    }


def traced_report(name: str, w: Workload, untraced: list[Rep], traced: list[Rep],
                  workers: int) -> dict[str, float]:
    """Analyse each traced rep, print the per-layer table for the first one,
    and return the per-layer metrics (medians over traced reps)."""
    wall_u = statistics.median(r.wall_s for r in untraced)
    cpu_u = statistics.median(r.cpu_s for r in untraced)
    idle = 1.0 - cpu_u / (workers * wall_u)
    overhead = statistics.median(r.wall_s for r in traced) / wall_u - 1.0
    per_rep = []
    for rep in traced:
        if not rep.spans:
            continue  # the traced process failed; its trials already count as failed
        main = rep.spans[0]
        if main["not_restored"]:
            raise RuntimeError(f"wrapped bindings not restored: {main['not_restored']}")
        a = tracer.analyse(rep.spans, main["pid"], rep.wall_s)
        per_rep.append(tracer.per_layer_metrics(a, idle, overhead, rep.wall_s))
        if len(per_rep) == 1:
            print_layer_table(name, w, a, rep, main)
    if not per_rep:
        raise RuntimeError("no traced rep left spans")
    return {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}


def print_layer_table(name: str, w: Workload, a: dict, rep: Rep, main: dict) -> None:
    cells = a["cells"]
    total = sum(cells.values())
    print(f"traced run: wall {rep.wall_s:.3f} s, {len(rep.spans) - 1} worker dumps, "
          f"wrapped bindings restored {main['bindings']}/{main['bindings']}")
    print(f"{'layer':<14}{'self_s':>12}{'share':>8}")
    for layer, own in sorted(tracer.layer_table(cells).items(), key=lambda kv: -kv[1]):
        print(f"{layer:<14}{own:12.4f}{own / total:8.1%}")
    print(f"{'span':<36}{'calls':>10}{'s':>12}{'self_s':>12}")
    for span, row in sorted(a["names"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{span:<36}{row['calls']:>10}{row['s']:12.4f}{row['self_s']:12.4f}")
    phases = {}
    for (_, tag), own in cells.items():
        phases[tag or "-"] = phases.get(tag or "-", 0.0) + own
    print("self time by phase: " + ", ".join(f"{t} {v:.4f} s" for t, v in sorted(phases.items())))
    group, rest = tracer.predict(cells, w.in_group)
    top_layer, top = max(rest.items(), key=lambda kv: kv[1])
    verdict = "PASS" if group > top else "FAIL"
    print(f"prediction {verdict}: {w.prediction} on {name} = {group:.4f} s ({group / total:.1%})"
          f" vs largest other layer {top_layer} = {top:.4f} s ({top / total:.1%})")


def emit(values: dict[str, float], kind: str, correct: bool, attempted: int,
         failed: int) -> None:
    units = {name: m["unit"] for name, m in declared(kind).items()}
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {kind}: "
                           f"{sorted(set(values) ^ set(units))}")
    for k, v in values.items():
        print(f"metric {k} = {v} {units[k]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))


def check_reps(name: str, w: Workload, seed: int, reps: list[Rep]) -> tuple[int, int, Rep]:
    """Count attempted and failed trials over all reps; return them and the
    first rep that produced a trials.csv."""
    config = json.loads(config_path(name).read_text())
    expected = [(d, i) for d in distributions(w) for i in range(config["trials"])]
    ref_sha, refs = results.load_refs(BENCH / "refs" / f"{name}.json", config, seed)
    source = "stored reference"
    if not refs:
        refs = spot_check_refs(name, w, seed, expected)
        source = f"{len(refs)} in-process spot checks + band {w.band}"
    first = next((r for r in reps if r.sha256 is not None), reps[0])
    failed = 0
    for rep in reps:
        if rep.sha256 is None or rep.sha256 != first.sha256:
            failed += len(expected)
        else:
            failed += min(len(expected), results.count_failed(rep.rows, expected, refs, w.band)
                          + rep.bad_lines)
    attempted = len(expected) * len(reps)
    identical = all(r.sha256 == first.sha256 for r in reps)
    diverged = sum(r.diverged for r in first.rows.values())
    print(f"correctness ({source}): failed {failed}/{attempted} "
          f"(failed_frac {failed / attempted}); diverged_frac {diverged}/{len(expected)}")
    print(f"trials.csv sha256 {first.sha256}: identical across {len(reps)} reps: "
          f"{'yes' if identical else 'NO'}; stored reference: "
          f"{'none' if ref_sha is None else ('matches' if ref_sha == first.sha256 else 'differs')}")
    return attempted, failed, first


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "ddpm1d" / "__init__.py").is_file():
        print(f"no ddpm1d sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    started = time.perf_counter()
    w = WORKLOADS[args.workload]
    workers = nproc()
    runner = Runner(started)
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        print(f"workload {args.workload}: {declared('workloads')[args.workload]['why']}")
        print("provenance " + json.dumps(provenance(args.seed, workers), sort_keys=True))
        setup: list[float] = []
        setup_reps = 0 if args.trace else SETUP_REPS
        reps: list[Rep] = []
        window = time.perf_counter()
        while True:
            due = 1 + int(setup_reps * (time.perf_counter() - window) / args.seconds)
            while len(setup) < min(setup_reps, due):
                setup.append(measure_setup(runner))
            traced = bool(args.trace) and len(reps) % 2 == 1
            reps.append(run_rep(runner, args.workload, w, args.seed, workers, tmp,
                                len(reps), traced))
            if args.trace and len(reps) < 2:
                continue
            next_traced = bool(args.trace) and len(reps) % 2 == 1
            next_s = statistics.median(r.wall_s for r in reps if r.traced == next_traced)
            if time.perf_counter() - window + next_s > args.seconds:
                break
        while len(setup) < setup_reps:
            setup.append(measure_setup(runner))
        untraced = [r for r in reps if not r.traced]
        traced_reps = [r for r in reps if r.traced]
        print(f"{len(untraced)} untraced and {len(traced_reps)} traced reps in "
              f"{time.perf_counter() - started:.1f} s, workers {workers}")
        for kind, group in (("untraced", untraced), ("traced", traced_reps)):
            if group:
                print(f"{kind} reps wall_s: " + ", ".join(f"{r.wall_s:.4f}" for r in group)
                      + "; cpu_s: " + ", ".join(f"{r.cpu_s:.4f}" for r in group))
        attempted, failed, first = check_reps(args.workload, w, args.seed, reps)
        if args.trace:
            values = traced_report(args.workload, w, untraced, traced_reps, workers)
            emit(values, "per_layer", failed == 0, attempted, failed)
        else:
            values = end_to_end(untraced, setup, first, failed, attempted)
            print(f"setup_s reps: {', '.join(f'{s:.4f}' for s in setup)}")
            emit(values, "end_to_end", failed == 0, attempted, failed)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
