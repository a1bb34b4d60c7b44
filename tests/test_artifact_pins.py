"""Run artifacts against stored digests.

Each case runs ``python -m ddpm1d run`` on a ``perfbench/workloads`` config
and compares the sha256 of trials.csv with ``perfbench/refs/<workload>.json``.
The fanout seeds run at one and two workers; the sample seed is the only
reference with mixture noise and 2000-chain generation.

trials.csv keeps 9 significant digits, which hides training changes of a few
ulps (reversing the order of the ``b1`` sum in ``loss_and_grad_arrays`` moves
the trained weights but no digit of the csv). So the sample run also dumps
trial 0's weights at full precision and compares their sha256 with
``WEIGHTS_SHA256``.

That run trains 100 epochs, and a dead unit's Adam moments take longer than
that to decay toward the subnormals, so trial 0 of each ``table1`` family at
the train workload's full 3000 epochs is also trained in-process and the
sha256 of its weights compared with ``TRAIN_WEIGHTS_SHA256``.

The sampler has the same blind spot: dividing by ``sqrt(alpha)`` in
``reverse_mean`` through its reciprocal moves the generated values, yet
``gen_error`` keeps its 9 digits. So one mixture trial of the sample workload
is also generated in-process and the sha256 of its generated values and
divergence mask is compared with ``SAMPLER_SHA256``.

A change that moves results on purpose regenerates the references with
``perfbench/make_refs.py``, updates ``WEIGHTS_SHA256`` from a ``--dump-weights``
run, ``TRAIN_WEIGHTS_SHA256`` from the training case and ``SAMPLER_SHA256``
from the sampler case, refreshes the selftest reference rows (``SELFTEST_ROWS``
in ``cli.py``), copied from its FAIL lines, and bumps ``artifact_version``; it
does not loosen these comparisons.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from ddpm1d import cli
from ddpm1d.diffusion import generate_block, mlp_predictor
from ddpm1d.experiment import (eval_stream, table1_distributions, table2_distributions,
                               train_trial)

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"

CASES = [("fanout", seed, workers) for seed in (0, 1, 2) for workers in (1, 2)]
CASES.append(("sample", 0, 2))

# sha256 of ``--dump-weights`` output (gaussian trial 0 after 100 epochs)
WEIGHTS_SHA256 = {
    ("sample", 0): "07b41f24b996f84ab25f002047c8c51e62b6df742b53ff03a3e7c81b4d42df4a",
}

# sha256 of train_trial(cfg, 0)[0].tobytes() for each table1 family (train workload,
# seed 0: trial 0 after 3000 epochs)
TRAIN_WEIGHTS_SHA256 = {
    "gaussian": "61d27efbc67fc78d1797edfd3d7acec1bd0adf4d2065da299517272f11fc9b7d",
    "uniform": "6786933a5c110e8f8a8a80e8bd911aaeedfb7deb504c2972584abe011bab90d7",
    "arcsine": "7b2f89904d1a11e2ac4f87b53b11e0fbc3ea481e65dcb7b22f2e1d1d0702d2f3",
}

# sha256 of x0_hats.tobytes() + mask.tobytes() from generate_block (sample
# workload, seed 0, mix0.5 trial 0: 2000 chains after 100 epochs)
SAMPLER_SHA256 = "f899652b22494c16670d77f5a6b94351756825ae0e179485025672bc52a652ea"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "workload, seed, workers", CASES, ids=[f"{w}-seed{s}-workers{k}" for w, s, k in CASES]
)
def test_run_artifacts_match_reference(tmp_path, workload, seed, workers):
    ref = json.loads((BENCH / "refs" / f"{workload}.json").read_text())
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out, weights = tmp_path / "out", tmp_path / "weights.json"
    proc = subprocess.run(
        [sys.executable, "-m", "ddpm1d", "run",
         "--config", str(BENCH / "workloads" / f"{workload}.json"),
         "--experiment", ref["experiment"], "--seed", str(seed),
         "--workers", str(workers), "--quiet", "--out", str(out),
         "--dump-weights", str(weights)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert sha256(out / "trials.csv") == ref["seeds"][str(seed)]["sha256"], (
        f"{workload} seed {seed}: trials.csv differs from perfbench/refs/{workload}.json"
    )
    if (workload, seed) in WEIGHTS_SHA256:
        assert sha256(weights) == WEIGHTS_SHA256[workload, seed], (
            f"{workload} seed {seed}: trial 0 weights moved"
        )


def test_sampler_output_matches_digest():
    c = cli.parse_config(BENCH / "workloads" / "sample.json", {"base_seed": 0})
    c = replace(c, noise=dict(table2_distributions())["mix0.5"])
    params = train_trial(c, 0)[0]
    x0_hats, mask = generate_block(
        mlp_predictor(params, c.steps), c.gens_per_trial, c.schedule(),
        c.sampler_options(), eval_stream(c, 0),
    )
    digest = hashlib.sha256(x0_hats.tobytes() + mask.tobytes()).hexdigest()
    assert digest == SAMPLER_SHA256, "sample mix0.5 trial 0: generated values moved"


@pytest.mark.parametrize("label", TRAIN_WEIGHTS_SHA256)
def test_full_length_weights_match_digest(label):
    c = cli.parse_config(BENCH / "workloads" / "train.json", {"base_seed": 0})
    params = train_trial(replace(c, noise=dict(table1_distributions())[label]), 0)[0]
    assert hashlib.sha256(params.tobytes()).hexdigest() == TRAIN_WEIGHTS_SHA256[label], (
        f"train {label} trial 0: weights after 3000 epochs moved"
    )
