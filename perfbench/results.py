"""Reading ``trials.csv`` and deciding which trials of a run failed.

A trial fails when its row is missing or malformed, when the run crashed,
when its values fall outside the tolerance of its reference, or, for a trial
without a reference, outside its workload's plausibility band. A repeated run
whose ``trials.csv`` digest differs from the first run's fails every trial:
the same config and seed must give the same bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

# Relative tolerance on final_loss and gen_error against a reference. The CSV
# keeps 9 significant digits; a change that only reorders floating-point
# arithmetic over 48,000 training steps moves them in the 5th or 6th digit.
REL_TOL = 1e-3
ABS_TOL = 1e-9

HEADER = ["experiment", "distribution", "trial", "seed",
          "final_loss", "gen_error", "diverged"]


@dataclass(frozen=True)
class Row:
    final_loss: float
    gen_error: float
    diverged: bool

    def to_json(self) -> list:
        return [_nan_to_none(self.final_loss), _nan_to_none(self.gen_error), self.diverged]

    @classmethod
    def from_json(cls, v: list) -> "Row":
        return cls(_none_to_nan(v[0]), _none_to_nan(v[1]), bool(v[2]))


def _nan_to_none(x: float):
    return None if math.isnan(x) else x


def _none_to_nan(x) -> float:
    return math.nan if x is None else float(x)


def read_trials(path: Path, experiment: str, seed: int) -> tuple[str, dict, int]:
    """Parse ``trials.csv``; return (sha256, rows by (distribution, trial),
    number of malformed or duplicate lines)."""
    data = path.read_bytes()
    rows: dict[tuple[str, int], Row] = {}
    bad = 0
    lines = list(csv.reader(data.decode().splitlines()))
    if not lines or lines[0] != HEADER:
        return hashlib.sha256(data).hexdigest(), rows, len(lines)
    for line in lines[1:]:
        try:
            exp, dist, trial, row_seed, loss, err, div = line
            key = (dist, int(trial))
            if exp != experiment or int(row_seed) != seed or div not in ("true", "false") \
                    or key in rows:
                raise ValueError(line)
            rows[key] = Row(float(loss), float(err), div == "true")
        except ValueError:
            bad += 1
    return hashlib.sha256(data).hexdigest(), rows, bad


def close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= ABS_TOL + REL_TOL * abs(b)


def row_fails(row: Row | None, ref: Row | None, band: tuple[float, float]) -> bool:
    """Whether one trial failed: missing, outside tolerance of ``ref``, or,
    without a reference, a non-diverged trial whose loss is not finite or
    whose gen_error is outside ``band``."""
    if row is None:
        return True
    if ref is not None:
        return not (row.diverged == ref.diverged and close(row.final_loss, ref.final_loss)
                    and close(row.gen_error, ref.gen_error))
    if row.diverged:
        return False
    lo, hi = band
    return not (math.isfinite(row.final_loss) and lo <= row.gen_error <= hi)


def count_failed(rows: dict, expected: list, refs: dict, band: tuple[float, float]) -> int:
    """Failed trials among ``expected`` keys; ``refs`` maps some keys to Rows."""
    return sum(row_fails(rows.get(k), refs.get(k), band) for k in expected)


def load_refs(path: Path, config: dict, seed: int) -> tuple[str | None, dict]:
    """Stored reference (sha256, rows by key) for ``seed``; (None, {}) when
    the store has no entry for it. A store made from another config is an
    error, not a missing reference."""
    if not path.is_file():
        return None, {}
    store = json.loads(path.read_text())
    if store["config"] != config:
        raise ValueError(f"{path} was made from another workload config; rerun make_refs.py")
    entry = store["seeds"].get(str(seed))
    if entry is None:
        return None, {}
    rows = {(dist, i): Row.from_json(v)
            for dist, values in entry["trials"].items() for i, v in enumerate(values)}
    return entry["sha256"], rows
