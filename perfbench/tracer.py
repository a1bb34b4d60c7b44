"""Timing wrappers, span recording and self-time arithmetic for the traced run.

The traced run wraps the public functions listed in ``TARGETS`` from outside
the package: every binding of the original function object in a loaded
``ddpm1d`` module (the defining module and every ``from .x import name`` copy)
is replaced by one wrapper, and ``Tracer.uninstall`` puts each original back.

Every wrapped call is one span (name, start, end, parent). A span's self time
is its duration minus the part of its interval that its child spans cover.
Within one process the children of a span are disjoint, so the recorder
aggregates self time as it goes and keeps only the coarse ``experiment.*`` and
``cli.*`` spans whole. Those are needed across processes: a pool worker's
``experiment.run_trial`` span is a child of the main process's
``experiment.run_trials`` span that dispatched it, which ``analyse`` links by
time containment on the shared monotonic clock.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

# Spans kept whole (not only aggregated): the per-trial and CLI boundaries.
COARSE_PREFIXES = ("experiment.", "cli.")

# A span of one of these names tags itself and everything beneath it, so the
# per-layer table can say which phase a prng or mlp call belonged to.
PHASE_TAGS = {
    "experiment.train_trial": "train",
    "experiment.evaluate_trial": "evaluate",
    "diffusion.generate_block": "generate",
}

LAYERS = ("prng", "noise", "schedule", "mlp", "diffusion", "experiment", "cli")

FAMILIES = ("gaussian", "uniform", "arcsine", "mixture")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    pid: int
    t0: float
    t1: float
    self_s: float = 0.0


def covered(t0: float, t1: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[t0, t1]``."""
    clipped = sorted((max(a, t0), min(b, t1)) for a, b in intervals)
    total = 0.0
    end = t0
    for a, b in clipped:
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_time(span: Span, children) -> float:
    """Duration of ``span`` minus the part of it its children cover."""
    return (span.t1 - span.t0) - covered(span.t0, span.t1, [(c.t0, c.t1) for c in children])


class Recorder:
    """Per-process span recorder; used from one thread only.

    ``agg`` maps ``name@tag`` (or ``name``) to ``[calls, total_s, self_s]``,
    ``counts`` holds counters such as draws or rows, and ``spans`` the coarse
    spans kept whole. ``on_root`` is called after a span with no open parent
    closes; pool workers use it to write their spans out after each trial.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.on_root: Callable[[], None] | None = None
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.stack: list[list] = []  # open frames: [span_id, name, tag, t0, child_s]
        self.agg: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[Span] = []
        self._next_id = 0

    def open(self, name: str) -> None:
        parent_tag = self.stack[-1][2] if self.stack else None
        self._next_id += 1
        self.stack.append([self._next_id, name, PHASE_TAGS.get(name, parent_tag),
                           self.clock(), 0.0])

    def close(self) -> None:
        """Close the innermost open span."""
        t1 = self.clock()
        span_id, name, tag, t0, child_s = self.stack.pop()
        dur = t1 - t0
        own = dur - child_s
        key = f"{name}@{tag}" if tag else name
        row = self.agg.setdefault(key, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] += own
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[4] += dur
        if name.startswith(COARSE_PREFIXES):
            self.spans.append(
                Span(span_id, parent[0] if parent else None, name, self.pid, t0, t1, own)
            )
        if parent is None and self.on_root is not None:
            self.on_root()

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def dump(self) -> dict:
        return {
            "pid": self.pid,
            "agg": self.agg,
            "counts": self.counts,
            "spans": [vars(s) for s in self.spans],
        }


# ----------------------------------------------------------------- targets


def _n_arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _count_draws(layer):
    def count(rec, args, kwargs, result):
        rec.count(f"{layer}.draws", _n_arg(args, kwargs, 1, "n"))
    return count


def _family_span(args, kwargs):
    return "noise.sample_block." + _n_arg(args, kwargs, 0, "spec").family


def _count_sample_block(rec, args, kwargs, result):
    family = _n_arg(args, kwargs, 0, "spec").family
    n = _n_arg(args, kwargs, 1, "n")
    rec.count("noise.sample_block.draws", n)
    rec.count(f"noise.sample_block.{family}.draws", n)


def _count_rows(rec, args, kwargs, result):
    rec.count("mlp.forward_batch.rows", len(_n_arg(args, kwargs, 1, "X")))


def _count_lg_rows(rec, args, kwargs, result):
    rec.count("mlp.loss_and_grad_arrays.rows", len(_n_arg(args, kwargs, 2, "y")))


def _count_generate(rec, args, kwargs, result):
    n = _n_arg(args, kwargs, 1, "n")
    T = _n_arg(args, kwargs, 2, "s").T
    rec.count("diffusion.generate_block.chain_steps", n * T)
    rec.count("diffusion.generate_block.diverged_chains", int(result[1].sum()))


def _count_csv_bytes(rec, args, kwargs, result):
    rec.count("cli.write_csv.bytes", sum(os.path.getsize(p) for p in result))


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``attr`` may be ``Class.method``; ``span`` is the
    span name, or a function of the call's arguments that returns it."""

    module: str
    attr: str
    span: str | Callable
    count: Callable | None = None


TARGETS = (
    Target("ddpm1d.prng", "seed_stream", "prng.seed_stream"),
    Target("ddpm1d.prng", "RngStream.uniforms", "prng.uniforms", _count_draws("prng.uniforms")),
    Target("ddpm1d.prng", "RngStream.gaussians", "prng.gaussians", _count_draws("prng.gaussians")),
    Target("ddpm1d.noise", "sample_block", _family_span, _count_sample_block),
    Target("ddpm1d.schedule", "build_linear", "schedule.build_linear"),
    Target("ddpm1d.mlp", "loss_and_grad_arrays", "mlp.loss_and_grad_arrays", _count_lg_rows),
    Target("ddpm1d.mlp", "adam_step", "mlp.adam_step"),
    Target("ddpm1d.mlp", "forward_batch", "mlp.forward_batch", _count_rows),
    Target("ddpm1d.diffusion", "generate_block", "diffusion.generate_block", _count_generate),
    Target("ddpm1d.experiment", "train_trial", "experiment.train_trial"),
    Target("ddpm1d.experiment", "evaluate_trial", "experiment.evaluate_trial"),
    Target("ddpm1d.experiment", "run_trial", "experiment.run_trial"),
    Target("ddpm1d.experiment", "run_trials", "experiment.run_trials"),
    Target("ddpm1d.experiment", "run_suite", "experiment.run_suite"),
    Target("ddpm1d.experiment", "ProcessPoolExecutor", "experiment.pool.start"),
    Target("ddpm1d.cli", "parse_config", "cli.parse_config"),
    Target("ddpm1d.cli", "write_csv", "cli.write_csv", _count_csv_bytes),
    Target("ddpm1d.cli", "write_manifest", "cli.write_manifest"),
)


def _wrap(fn, target: Target, rec: Recorder):
    span, count = target.span, target.count

    # functools.wraps copies the qualified name, so pickle sends a wrapped
    # function to a pool worker by reference, as it does the original.
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.open(span if isinstance(span, str) else span(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close()
        if count is not None:
            count(rec, args, kwargs, result)
        return result

    return traced


class Tracer:
    """Installs one wrapper per target and restores every original binding."""

    def __init__(self, rec: Recorder, targets=TARGETS):
        self.rec = rec
        self.targets = targets
        self.bindings: list[tuple[object, str, object]] = []  # (owner, name, original)

    def install(self) -> None:
        if self.bindings:
            raise RuntimeError("tracer already installed")
        for t in self.targets:
            owner = importlib.import_module(t.module)
            *path, leaf = t.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[leaf]
            wrapper = _wrap(original, t, self.rec)
            if path:  # a method: the class attribute is the only binding
                holders = [(owner, leaf)]
            else:
                holders = [
                    (mod, key)
                    for mod_name, mod in list(sys.modules.items())
                    if mod_name == "ddpm1d" or mod_name.startswith("ddpm1d.")
                    for key, value in list(vars(mod).items())
                    if value is original
                ]
            for holder, key in holders:
                self.bindings.append((holder, key, original))
                setattr(holder, key, wrapper)

    def uninstall(self) -> list[str]:
        """Restore every binding; return the ones that are not the original
        object afterwards (empty when restoration is complete)."""
        for holder, key, original in reversed(self.bindings):
            setattr(holder, key, original)
        wrong = [
            f"{getattr(holder, '__name__', holder)}.{key}"
            for holder, key, original in self.bindings
            if vars(holder).get(key) is not original
        ]
        self.bindings = []
        return wrong


# ----------------------------------------------------------------- analysis


def _quantile(values, q):
    """Linear-interpolated quantile; 0.0 for no values."""
    values = sorted(values)
    if not values:
        return 0.0
    pos = q * (len(values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def analyse(dumps: list[dict], main_pid: int, main_wall_s: float) -> dict:
    """Merge per-process dumps into per-name totals and self-time cells.

    ``cells`` maps ``(name, tag)`` to self time summed over processes, with
    ``("unattributed", None)`` holding the part of the traced process's wall
    time (``main_wall_s``, seen from outside) that no main-process root span
    covers. ``names`` maps a span name to its calls, total and self time.
    """
    names: dict[str, dict] = {}
    cells: dict[tuple, float] = {}
    counts: dict[str, float] = {}
    spans: list[Span] = []
    for d in dumps:
        for key, (calls, total, own) in d["agg"].items():
            name, _, tag = key.partition("@")
            row = names.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += calls
            row["s"] += total
            row["self_s"] += own
            cells[name, tag or None] = cells.get((name, tag or None), 0.0) + own
        for key, value in d["counts"].items():
            counts[key] = counts.get(key, 0) + value
        spans.extend(Span(**s) for s in d["spans"])

    # A worker's root spans are children of the main process's run_trials span
    # that contains them; recompute that span's self time with them included.
    main = [s for s in spans if s.pid == main_pid]
    worker_roots = [s for s in spans if s.pid != main_pid and s.parent is None]
    for s in main:
        if s.name != "experiment.run_trials":
            continue
        children = [c for c in main if c.parent == s.id]
        children += [w for w in worker_roots if s.t0 <= w.t0 and w.t1 <= s.t1]
        delta = self_time(s, children) - s.self_s
        names[s.name]["self_s"] += delta
        cells[s.name, None] += delta

    roots = [(s.t0, s.t1) for s in main if s.parent is None]
    span_wall = covered(-math.inf, math.inf, roots)
    cells["unattributed", None] = max(main_wall_s - span_wall, 0.0)
    return {
        "names": names,
        "cells": cells,
        "counts": counts,
        "trial_s": [s.t1 - s.t0 for s in spans if s.name == "experiment.run_trial"],
    }


def layer_table(cells: dict) -> dict[str, float]:
    """Self time per layer (plus ``unattributed``), summed over tags."""
    table = {layer: 0.0 for layer in LAYERS + ("unattributed",)}
    for (name, _), own in cells.items():
        table[name.split(".")[0]] += own
    return table


def predict(cells: dict, in_group: Callable[[str, str | None], bool]) -> tuple[float, dict]:
    """Self time of the cells ``in_group`` selects, and per layer the self
    time of every other cell; the prediction holds when the group is larger
    than each layer's remainder."""
    group = sum(v for (name, tag), v in cells.items() if in_group(name, tag))
    rest = layer_table({k: v for k, v in cells.items() if not in_group(*k)})
    return group, rest


def flops_per_row() -> int:
    """Floating-point operations per batch row of one ``loss_and_grad_arrays``
    call of the 2-32-1 network, counted from the array shapes (a
    multiply-add is 2).

    forward: X @ W1.T (2*2*32), + b1 (32), relu (32), h @ W2 (2*32), + b2 and
    - y (2), err @ err (2); backward: dout (1), dout @ h (2*32), sum (1),
    outer (32), relu gradient and product (2*32), dz1.T @ X (2*2*32), column
    sums (32).
    """
    forward = 128 + 32 + 32 + 64 + 2 + 2
    backward = 1 + 64 + 1 + 32 + 64 + 128 + 32
    return forward + backward


# One Adam update of the 129 parameters: first moment (3 per parameter),
# second moment (4), two bias corrections, sqrt, + epsilon, divide, scale by
# the learning rate and subtract (1 each).
ADAM_FLOPS = 129 * (3 + 4 + 2 + 5)


def per_layer_metrics(a: dict, idle_frac: float, overhead_frac: float,
                      traced_wall_s: float) -> dict[str, float]:
    """The per-layer metric values of one traced run, by metric name."""
    n, c = a["names"], a["counts"]

    def row(name):
        return n.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    families = [v for k, v in n.items() if k.startswith("noise.sample_block.")]
    lg, adam, fb, gen = (row(x) for x in (
        "mlp.loss_and_grad_arrays", "mlp.adam_step", "mlp.forward_batch",
        "diffusion.generate_block"))
    flops = (c.get("mlp.loss_and_grad_arrays.rows", 0) * flops_per_row()
             + adam["calls"] * ADAM_FLOPS)
    step_s = lg["s"] + adam["s"]
    trials = a["trial_s"]
    m = {
        "prng.seed_stream.calls": row("prng.seed_stream")["calls"],
        "prng.seed_stream.s": row("prng.seed_stream")["s"],
        "prng.uniforms.draws": c.get("prng.uniforms.draws", 0),
        "prng.uniforms.s": row("prng.uniforms")["s"],
        "prng.gaussians.draws": c.get("prng.gaussians.draws", 0),
        "prng.gaussians.s": row("prng.gaussians")["s"],
        "noise.sample_block.calls": sum(r["calls"] for r in families),
        "noise.sample_block.draws": c.get("noise.sample_block.draws", 0),
        "noise.sample_block.self_s": sum(r["self_s"] for r in families),
    }
    for family in FAMILIES:
        m[f"noise.sample_block.{family}.draws"] = c.get(f"noise.sample_block.{family}.draws", 0)
    m.update({
        "schedule.build_linear.calls": row("schedule.build_linear")["calls"],
        "schedule.build_linear.s": row("schedule.build_linear")["s"],
        "mlp.loss_and_grad_arrays.calls": lg["calls"],
        "mlp.loss_and_grad_arrays.s": lg["s"],
        "mlp.loss_and_grad_arrays.us_per_call": 1e6 * lg["s"] / max(lg["calls"], 1),
        "mlp.adam_step.calls": adam["calls"],
        "mlp.adam_step.s": adam["s"],
        "mlp.adam_step.us_per_call": 1e6 * adam["s"] / max(adam["calls"], 1),
        "mlp.train.flops_computed": flops,
        "mlp.train.gflops_per_s_computed": flops / step_s / 1e9 if step_s > 0 else 0.0,
        "mlp.forward_batch.calls": fb["calls"],
        "mlp.forward_batch.rows": c.get("mlp.forward_batch.rows", 0),
        "mlp.forward_batch.s": fb["s"],
        "diffusion.generate_block.calls": gen["calls"],
        "diffusion.generate_block.chain_steps": c.get("diffusion.generate_block.chain_steps", 0),
        "diffusion.generate_block.s": gen["s"],
        "diffusion.generate_block.self_s": gen["self_s"],
        "diffusion.generate_block.diverged_chains":
            c.get("diffusion.generate_block.diverged_chains", 0),
        "experiment.train_trial.self_s": row("experiment.train_trial")["self_s"],
        "experiment.evaluate_trial.self_s": row("experiment.evaluate_trial")["self_s"],
        "experiment.run_trial.calls": row("experiment.run_trial")["calls"],
        "experiment.run_trial.p50_s": _quantile(trials, 0.5),
        "experiment.run_trial.p90_s": _quantile(trials, 0.9),
        "experiment.pool.starts": row("experiment.pool.start")["calls"],
        "experiment.pool.self_s": row("experiment.run_trials")["self_s"],
        "experiment.pool.idle_frac": idle_frac,
        "cli.parse_config.s": row("cli.parse_config")["s"],
        "cli.write_csv.s": row("cli.write_csv")["s"],
        "cli.write_csv.bytes": c.get("cli.write_csv.bytes", 0),
        "cli.write_manifest.s": row("cli.write_manifest")["s"],
        "cli.import_s": row("cli.import")["s"],
        "trace.overhead_frac": overhead_frac,
        "trace.unattributed_frac": a["cells"]["unattributed", None] / traced_wall_s,
    })
    for layer, own in layer_table(a["cells"]).items():
        if layer != "unattributed":
            m[f"layer.{layer}.self_s"] = own
    return m
