"""Noise family samplers with analytically known moments.

Families (all mean zero):

    gaussian   standard normal
    uniform    uniform on [-sqrt(3), sqrt(3)]  (variance exactly 1)
    arcsine    Beta(1/2, 1/2) standardized to variance 1, support [-sqrt(2), sqrt(2)]
    mixture    Bernoulli(mix_prob) choice between N(0, 1) and N(0, big_variance),
               variance p + (1 - p) * big_variance for p = mix_prob

The arcsine family is the bimodal test distribution: among Beta laws (whose
parameters must be positive) it is the one whose density peaks at the two
support endpoints, and standardizing Beta(1/2, 1/2) (mean 1/2, variance 1/8)
gives unit variance on [-sqrt(2), sqrt(2)].

``sample_block`` draws ``n`` values at once; training, evaluation and
``moment_report`` (mean, variance and excess kurtosis) all sample through it.
The stream layout of one block is fixed per family so sequences survive refactors:

    uniform / arcsine: n uniforms, one per value
    gaussian:          n gaussians (Box-Muller pairs, see the prng module)
    mixture:           n selector uniforms first, then n gaussians

The kernel maps the uniforms (and a mixture's gaussians) to the values, by the
numpy formulas that it replaced, in their order and with their bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernel, schema
from .errors import ConfigError
from .prng import RngStream

FAMILIES = ("gaussian", "uniform", "arcsine", "mixture")


@dataclass(frozen=True)
class NoiseSpec:
    """Declarative description of one noise distribution.

    ``mix_prob`` and ``big_variance`` only matter for the mixture family;
    ``normalize`` rescales it to unit variance, which the others have already.
    """

    family: str = field(default="gaussian", metadata={"choices": FAMILIES})
    mix_prob: float = field(default=0.9, metadata={">=": 0.0, "<=": 1.0})
    big_variance: float = field(default=100.0, metadata={">": 0.0})
    normalize: bool = False

    def __post_init__(self):
        schema.check(self)

    def label(self) -> str:
        if self.family == "mixture":
            return f"mix{self.mix_prob:g}"
        return self.family

    @classmethod
    def from_dict(cls, d) -> "NoiseSpec":
        spec = schema.from_json(cls, d, "noise")
        if "family" not in d:
            raise ConfigError("noise config requires a 'family' key")
        return spec


def sample_block(spec: NoiseSpec, n: int, g: RngStream) -> np.ndarray:
    """``n`` draws from ``spec`` in the block layout documented above, mapped
    from the uniforms (and a mixture's gaussians) in the kernel."""
    if spec.family == "gaussian":
        return g.gaussians(n)
    u, out = g.uniforms(n), np.empty(n)
    w = g.gaussians(n) if spec.family == "mixture" else u
    kernel.default().noise(spec.family, u, w, out, spec.mix_prob, spec.big_variance,
                           spec.normalize)
    return out


@dataclass(frozen=True)
class MomentReport:
    """Sample moments; ``kurtosis`` is the excess kurtosis (normal = 0)."""

    mean: float
    variance: float
    kurtosis: float


def moment_report(spec: NoiseSpec, n: int, g: RngStream) -> MomentReport:
    """Sample moments over ``n`` block draws."""
    if n < 2:
        raise ValueError(f"moment_report needs n >= 2, got {n}")
    x = sample_block(spec, n, g)
    mean = float(x.mean())
    d = x - mean
    m2 = float((d * d).mean())
    if m2 == 0.0:
        return MomentReport(mean, 0.0, 0.0)
    m4 = float((d * d * d * d).mean())
    return MomentReport(mean, m2, m4 / (m2 * m2) - 3.0)
