#!/usr/bin/env python3
"""In-process timings of the network layer and the two phases of a trial.

    PYTHONPATH=src python scripts/bench_layers.py [--tiny]

Each entry times its call in blocks of ``calls_per_block`` calls after one
warm-up block, on fixed inputs in this one process, and reports the median,
first and third quartile over ``repeats`` blocks (15), per call, in ``unit``:

- ``forward_batch``: ``mlp.forward_batch`` on 2000 rows (one reverse step of
  the ``sample`` benchmark workload);
- ``loss_and_grad_arrays``: ``mlp.loss_and_grad_arrays`` on one 64-row batch;
- ``adam_step``: ``mlp.adam_step``;
- ``sample_block.<family>``: ``noise.sample_block`` of 2000 draws (one reverse
  step's noise in the ``sample`` workload) for gaussian, uniform, arcsine and
  mix0.5;
- ``uniforms`` and ``gaussians``: ``RngStream.uniforms`` and
  ``RngStream.gaussians`` of 1000 draws (one training epoch's worth);
- ``rows``: the kernel's build of an epoch's 1000 (x_t, t / T) training rows,
  timesteps ``t = floor(u * T) + 1`` included, from 1000 uniforms drawn once,
  a gaussian noise block and the schedule's two roots, at the reference
  T = 500: the first part of ``mlp.train_epoch``;
- ``train_epoch``: ``experiment.train_trial`` at 10 epochs of the reference
  config, divided by 10, so one tenth of its set-up is included;
- ``train_epoch.late``: one epoch of that gaussian trial, its noise draws and
  ``mlp.train_epoch``, from a state trained once for 1000 epochs and then on
  through the timed epochs: the late epochs, where a dead unit's Adam moment
  has decayed for hundreds of steps;
- ``evaluate_trial``: ``experiment.evaluate_trial`` at the ``sample`` workload's
  config, read from ``perfbench/workloads/sample.json`` (2000 chains of 500
  steps), on weights trained there for its 100 epochs;
- ``reverse_step``: one step of that evaluation's reverse chains at t = 250,
  ``diffusion.reverse_mean`` with the same trained ``mlp_predictor`` and then
  the gaussian noise add, on 2000 chains;
- ``write_csv``: ``cli.write_csv`` of the ``fanout`` workload's 600 trial rows
  (table1's three families, 200 trials each) and their 3 summary rows, into a
  temporary directory;
- ``write_manifest``: ``cli.write_manifest`` of the ``fanout`` workload's config
  into a temporary directory;
- ``kernel_load``: a warm ``kernel.load()`` of the default build, as a fresh
  process makes it: the source read, its digest, the ``gcc --version`` call
  (its cache cleared before each call) and the import, which in this process
  finds the library already loaded;
- ``cli_startup``: one fresh ``python -m ddpm1d check`` process per call, from
  its start to its exit, with this process's environment;
- ``run_trials``: ``experiment.run_trials`` of the ``fanout`` workload's 600
  (family, trial) tasks, its config read from ``perfbench/workloads/fanout.json``,
  at ``workers=2``, the process pool's start and shutdown included: pool
  dispatch of nearly free trials.

The output is one JSON object keyed by entry. ``--tiny`` shrinks every input,
and the repeats to 3, for a smoke run of about a second.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from ddpm1d import cli, diffusion, kernel, mlp
from ddpm1d.experiment import (DistributionRun, ExperimentConfig, TrialResult, evaluate_trial,
                               init_stream, run_trials, summarize, table1_distributions,
                               train_stream, train_trial)
from ddpm1d.noise import NoiseSpec, sample_block
from ddpm1d.prng import seed_stream

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads"


def timed(fn, repeats: int, calls: int, unit_ns: float, inputs: dict, unit: str) -> dict:
    """Median and quartiles of ``fn``'s time per call over ``repeats`` blocks of
    ``calls`` calls, after one warm-up block."""
    per_call = []
    for _ in range(repeats + 1):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter_ns() - t0) / calls / unit_ns)
    q1, median, q3 = statistics.quantiles(per_call[1:], n=4, method="inclusive")
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "repeats": repeats,
            "calls_per_block": calls, "inputs": inputs}


def measure(tiny: bool) -> dict:
    rows, batch, epochs = (20, 8, 2) if tiny else (2000, 64, 10)
    late_epochs = 5 if tiny else 1000
    fanout_cfg = cli.parse_config(WORKLOADS / "fanout.json")
    # the sample workload's config, gaussian family, for evaluate_trial and reverse_step
    eval_cfg = cli.parse_config(WORKLOADS / "sample.json")
    if tiny:
        eval_cfg = replace(eval_cfg, epochs=2, gens_per_trial=20, steps=10)
    chains, steps = eval_cfg.gens_per_trial, eval_cfg.steps
    fanout_trials = 2 if tiny else fanout_cfg.trials  # per table1 family
    draws = 20 if tiny else 1000  # one epoch's samples
    repeats = 3 if tiny else 15
    calls = 5 if tiny else 200  # per block, for the microsecond-scale entries
    g = seed_stream(0, 1)
    theta = mlp.init_params(seed_stream(0, 0))
    X = np.column_stack([g.gaussians(rows) * 3.0, g.uniforms(rows)])
    y = g.gaussians(rows)
    Xb, yb = X[:batch], y[:batch]
    _, grad = mlp.loss_and_grad_arrays(theta, Xb, yb)
    state = mlp.AdamState.zeros()
    train_cfg = ExperimentConfig(epochs=epochs, samples_per_epoch=16 * batch if tiny else 1000,
                                 batch_size=batch, steps=steps, trials=1)
    trained, _, _ = train_trial(eval_cfg, 0)
    u, eps = g.uniforms(draws), g.gaussians(draws)
    out = np.empty((draws, 2))
    train_sched = train_cfg.schedule()
    us, ms = 1e3, 1e6
    families = (NoiseSpec("gaussian"), NoiseSpec("uniform"), NoiseSpec("arcsine"),
                NoiseSpec("mixture", mix_prob=0.5))
    # halfway down evaluate_trial's chains: t = 250 of 500
    sched, gaussian, t = eval_cfg.schedule(), families[0], steps // 2
    pred, x_t = diffusion.mlp_predictor(trained, steps), sample_block(gaussian, chains, g)

    def reverse_step():  # generate_block's step
        x = diffusion.reverse_mean(pred, x_t, t, sched)
        x += sched.sqrt_beta[t - 1] * sample_block(gaussian, chains, g)

    late_theta, late_state = mlp.init_params(init_stream(train_cfg, 0)), mlp.AdamState.zeros()
    late_g = train_stream(train_cfg, 0)

    def late_epoch():  # train_trial's epoch
        n = train_cfg.samples_per_epoch
        u, eps = late_g.uniforms(n), sample_block(train_cfg.noise, n, late_g)
        mlp.train_epoch(late_theta, late_state, u, eps, train_cfg.x0, train_sched, batch,
                        train_cfg.learning_rate)

    for _ in range(late_epochs):
        late_epoch()
    losses, errors = g.uniforms(fanout_trials), g.uniforms(fanout_trials)
    runs = []
    for label, _ in table1_distributions():
        trials = [TrialResult(label, i, 0, float(losses[i]), float(errors[i]), None)
                  for i in range(fanout_trials)]
        runs.append(DistributionRun(label, trials, summarize(trials, label)))
    with tempfile.TemporaryDirectory() as out_dir:
        write_csv = timed(lambda: cli.write_csv("table1", runs, out_dir), repeats,
                          calls // 10 or 1, ms, {"rows": len(runs) * fanout_trials}, "ms")
        write_manifest = timed(lambda: cli.write_manifest(fanout_cfg, out_dir, 1.0, 2, "table1"),
                               repeats, calls // 10 or 1, ms, {"experiment": "table1"}, "ms")
    check = [sys.executable, "-m", "ddpm1d", "check"]
    tasks = [(replace(fanout_cfg, noise=spec), i) for _, spec in table1_distributions()
             for i in range(fanout_trials)]
    noise = {f"sample_block.{spec.label()}":
             timed(lambda spec=spec: sample_block(spec, rows, g), repeats, calls // 10 or 1,
                   us, {"draws": rows}, "us")
             for spec in families}
    return {
        "forward_batch": timed(lambda: mlp.forward_batch(theta, X), repeats, calls // 10 or 1,
                               us, {"rows": rows}, "us"),
        "loss_and_grad_arrays": timed(lambda: mlp.loss_and_grad_arrays(theta, Xb, yb), repeats,
                                      calls, us, {"rows": batch}, "us"),
        "adam_step": timed(lambda: mlp.adam_step(theta, state, grad, 1e-3), repeats, calls, us,
                           {"params": mlp.N_PARAMS}, "us"),
        **noise,
        "uniforms": timed(lambda: g.uniforms(draws), repeats, calls, us, {"draws": draws}, "us"),
        "gaussians": timed(lambda: g.gaussians(draws), repeats, calls, us, {"draws": draws},
                           "us"),
        "rows": timed(lambda: kernel.default().rows(u, eps, 7.0, train_sched.sqrt_alpha_bar,
                                                    train_sched.sqrt_one_minus_alpha_bar, out),
                      repeats, calls, us, {"rows": draws, "T": steps}, "us"),
        "train_epoch": timed(lambda: train_trial(train_cfg, 0), repeats, 1, ms * epochs,
                             {"epochs": epochs, "samples_per_epoch": train_cfg.samples_per_epoch,
                              "batch_size": batch}, "ms"),
        "train_epoch.late": timed(late_epoch, repeats, calls // 10 or 1, ms,
                                  {"after_epochs": late_epochs, "family": "gaussian",
                                   "samples_per_epoch": train_cfg.samples_per_epoch,
                                   "batch_size": batch}, "ms"),
        "evaluate_trial": timed(lambda: evaluate_trial(trained, eval_cfg, 0), repeats, 1, ms,
                                {"chains": chains, "steps": steps, "family": "gaussian"}, "ms"),
        "reverse_step": timed(reverse_step, repeats, calls // 10 or 1, us,
                              {"chains": chains, "t": t, "family": "gaussian"}, "us"),
        "write_csv": write_csv,
        "write_manifest": write_manifest,
        "kernel_load": timed(lambda: (kernel.compiler_version.cache_clear(), kernel.load()),
                             repeats, calls // 10 or 1, ms, {"build": "default, cached"}, "ms"),
        "cli_startup": timed(lambda: subprocess.run(check, check=True, stdout=subprocess.DEVNULL),
                             repeats, 1, ms, {"command": "python -m ddpm1d check"}, "ms"),
        "run_trials": timed(lambda: run_trials(tasks, workers=2), repeats, 1, ms,
                            {"tasks": len(tasks), "workers": 2}, "ms"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for a smoke run")
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.tiny), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
