#!/usr/bin/env python3
"""Thirty-second tour: schedule constants, the oracle sanity check, and one
abbreviated training run per table-1 distribution."""

import time

from ddpm1d.diffusion import gaussian_options, generate_block, oracle_predictor
from ddpm1d.experiment import ExperimentConfig, run_suite, table1_distributions
from ddpm1d.prng import seed_stream
from ddpm1d.schedule import build_linear, retention

sched = build_linear(1e-4, 0.02, 500)
print(f"beta range [{sched.beta[0]}, {sched.beta[-1]}], "
      f"terminal retention sqrt(alpha_bar_500) = {retention(sched, 500):.6f}")

pred = oracle_predictor(7.0, sched)
x0_hats, _ = generate_block(pred, 200, sched, gaussian_options(), seed_stream(0, 0))
print(f"oracle chain: mean of 200 generated values = {x0_hats.mean():.6f} (target 7)")

cfg = ExperimentConfig(epochs=300, trials=2, gens_per_trial=50)
start = time.perf_counter()
for run in run_suite(cfg, table1_distributions(), workers=2):
    s = run.summary
    print(f"{s.label:10s} mean_error={s.mean_error:.4f} over {s.n_trials} short trials")
print(f"({time.perf_counter() - start:.0f}s; full runs train 3000 epochs per trial)")
