"""Tests for the benchmark's own code: self-time arithmetic, wrapper
restoration, failed-trial counting and metric names.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import results  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from tracer import Recorder, Span, Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_union_of_overlapping_children():
    parent = Span(1, None, "experiment.run_trials", 10, 0.0, 10.0)
    children = [
        Span(2, None, "experiment.run_trial", 11, 1.0, 3.0),
        Span(3, None, "experiment.run_trial", 12, 2.0, 5.0),  # overlaps the first
        Span(4, None, "experiment.run_trial", 11, 8.0, 12.0),  # runs past the parent
    ]
    assert tracer.self_time(parent, children) == pytest.approx(10.0 - 4.0 - 2.0)
    assert tracer.covered(0.0, 10.0, []) == 0.0


def test_recorder_self_time_and_phase_tags():
    clock = FakeClock()
    rec = Recorder(clock)
    rec.open("experiment.train_trial")
    clock.now = 1.0
    rec.open("mlp.loss_and_grad_arrays")
    clock.now = 3.0
    rec.close()
    clock.now = 4.0
    rec.open("prng.uniforms")
    clock.now = 7.0
    rec.close()
    clock.now = 10.0
    rec.close()
    assert rec.agg == {
        "mlp.loss_and_grad_arrays@train": [1, 2.0, 2.0],
        "prng.uniforms@train": [1, 3.0, 3.0],
        "experiment.train_trial@train": [1, 10.0, 5.0],
    }
    # only the coarse span is kept whole, as a root
    assert [(s.name, s.parent, s.self_s) for s in rec.spans] == [
        ("experiment.train_trial", None, 5.0)]


def test_analyse_links_worker_trials_to_the_dispatching_span():
    clock = FakeClock()
    main = Recorder(clock)
    main.pid = 100
    main.open("experiment.run_suite")
    clock.now = 1.0
    main.open("experiment.run_trials")
    clock.now = 9.0
    main.close()
    clock.now = 10.0
    main.close()
    workers = []
    for pid, (t0, t1) in ((101, (2.0, 5.0)), (102, (3.0, 6.0)), (101, (7.0, 8.0))):
        w = Recorder(clock)
        w.pid = pid
        clock.now = t0
        w.open("experiment.run_trial")
        clock.now = t1
        w.close()
        workers.append(w.dump())
    a = tracer.analyse([main.dump()] + workers, main_pid=100, main_wall_s=12.0)
    # run_trials covers 1..9; workers cover 2..6 and 7..8
    assert a["names"]["experiment.run_trials"]["self_s"] == pytest.approx(8.0 - 5.0)
    assert a["cells"]["unattributed", None] == pytest.approx(12.0 - 10.0)
    assert sorted(a["trial_s"]) == [1.0, 3.0, 3.0]
    group, rest = tracer.predict(a["cells"], lambda name, tag: name == "experiment.run_trials")
    assert group == pytest.approx(3.0)
    # run_suite's own 2 s plus the three worker trials
    assert rest["experiment"] == pytest.approx(2.0 + 3.0 + 3.0 + 1.0)


def _bindings():
    return {
        (name, key): value
        for name, mod in sys.modules.items()
        if name == "ddpm1d" or name.startswith("ddpm1d.")
        for key, value in vars(mod).items()
    } | {("RngStream", k): v for k, v in vars(sys.modules["ddpm1d.prng"].RngStream).items()}


def test_wrappers_record_calls_and_restore_every_binding():
    from ddpm1d import cli, experiment
    from ddpm1d.experiment import ExperimentConfig

    cfg = ExperimentConfig(epochs=2, samples_per_epoch=8, batch_size=4, steps=5,
                           gens_per_trial=3, trials=1)
    before = _bindings()
    plain = experiment.run_trial(cfg, 0)[0]
    rec = Recorder()
    t = Tracer(rec)
    t.install()
    try:
        assert experiment.run_trial is not before["ddpm1d.experiment", "run_trial"]
        traced = experiment.run_trial(cfg, 0)[0]
        cli.parse_config(None, {"trials": 1})
    finally:
        assert t.uninstall() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert traced == plain
    calls: dict[str, int] = {}
    for key, (n, _, _) in rec.agg.items():
        name = key.partition("@")[0]
        calls[name] = calls.get(name, 0) + n
    assert calls["mlp.loss_and_grad_arrays"] == 4
    assert calls["diffusion.generate_block"] == 1
    assert calls["mlp.forward_batch"] == 5
    assert calls["cli.parse_config"] == 1
    assert rec.counts["prng.uniforms.draws"] > 0
    # nothing is recorded once the wrappers are gone
    experiment.run_trial(cfg, 0)
    assert sum(v[0] for v in rec.agg.values()) == sum(calls.values())


def _csv(rows):
    lines = [",".join(results.HEADER)]
    lines += [f"table1,{d},{i},5,{loss},{err},{div}" for d, i, loss, err, div in rows]
    return "\n".join(lines) + "\n"


def test_failed_trials_on_a_doctored_trials_csv(tmp_path):
    good = [("gaussian", i, 0.5, 0.04, "false") for i in range(4)]
    refs = {(d, i): results.Row(loss, err, div == "true") for d, i, loss, err, div in good}
    expected = list(refs)
    path = tmp_path / "trials.csv"

    path.write_text(_csv(good))
    sha, rows, bad = results.read_trials(path, "table1", 5)
    assert (bad, results.count_failed(rows, expected, refs, (0.0, 1.0))) == (0, 0)

    doctored = [
        ("gaussian", 0, 0.5, 0.04, "false"),
        ("gaussian", 1, 0.5, 0.0401, "false"),  # off by 0.25%: outside tolerance
        ("gaussian", 1, 0.5, 0.04, "false"),  # duplicate row
        ("gaussian", 2, "oops", 0.04, "false"),  # malformed value
        # trial 3 missing
    ]
    path.write_text(_csv(doctored))
    sha2, rows, bad = results.read_trials(path, "table1", 5)
    assert sha2 != sha
    assert bad == 2
    assert results.count_failed(rows, expected, refs, (0.0, 1.0)) == 3

    # without references the band decides; a diverged trial is not a failure
    banded = [("gaussian", 0, 0.5, 0.04, "false"), ("gaussian", 1, 0.5, 3.0, "false"),
              ("gaussian", 2, "nan", "nan", "true"), ("gaussian", 3, "inf", 0.04, "false")]
    path.write_text(_csv(banded))
    _, rows, bad = results.read_trials(path, "table1", 5)
    assert bad == 0
    assert results.count_failed(rows, expected, {}, (0.0, 1.0)) == 2

    # a row for another seed is malformed, so its trial counts as missing
    path.write_text(_csv(good).replace(",3,5,", ",3,6,"))
    _, rows, bad = results.read_trials(path, "table1", 5)
    assert bad == 1
    assert results.count_failed(rows, expected, refs, (0.0, 1.0)) == 1


NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_match_the_benchmark_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in spec[kind]]
    names += [w["name"] for w in spec["workloads"]]
    assert [n for n in names if not NAME.fullmatch(n)] == []
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)

    a = {"names": {}, "cells": {("unattributed", None): 0.0}, "counts": {}, "trial_s": []}
    per_layer = tracer.per_layer_metrics(a, 0.0, 0.0, 1.0)
    assert set(per_layer) == set(run.declared("per_layer"))

    rep = run.Rep(False, 1.0, 1.5, 40.0, "x", {("gaussian", 0): results.Row(0.1, 0.2, False)})
    e2e = run.end_to_end([rep], [0.3], rep, failed=0, attempted=1)
    assert set(e2e) == set(run.declared("end_to_end"))
