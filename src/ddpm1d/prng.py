"""Deterministic, substreamed random source.

Every trial derives all of its randomness from a ``(base_seed, stream_id)``
pair, so runs are bit-reproducible and trials can execute in parallel in any
order. Substreams are derived by SeedSequence hashing (no fast-forwarding),
which makes distinct stream ids statistically independent by construction.

Draws come in blocks. Gaussians come from the Box-Muller transform on
consecutive uniform pairs; both outputs of a pair are consumed in order, and
when a block has odd length the unused second variate is cached and opens the
next gaussian block on the same stream. The transform runs elementwise in the
kernel (libm ``sqrt``, ``sin`` and ``cos``) on numpy's ``log1p``, so an
element's value does not depend on the block length: a stream's gaussian
sequence is the same however it is split into blocks (the test suite checks
this).
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from . import kernel


class RngStream:
    """One independent uniform/gaussian substream keyed by (base_seed, stream_id), both >= 0."""

    def __init__(self, base_seed: int, stream_id: int):
        self._gen = Generator(PCG64(SeedSequence([base_seed, stream_id])))
        self._gauss_cache: float | None = None

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` consecutive doubles in [0, 1), each with 53 bits of mantissa entropy."""
        return self._gen.random(n)

    def gaussians(self, n: int) -> np.ndarray:
        """``n`` standard normals, continuing the stream's pair cache.

        Each Box-Muller pair consumes exactly 2 uniforms (u1, u2) and yields
        z1 = r*cos(2*pi*u2), z2 = r*sin(2*pi*u2) with r = sqrt(-2*log(1 - u1));
        1 - u1 lies in (0, 1], keeping the log argument away from zero.
        """
        out = np.empty(n + 1)  # an odd block's last pair ends one past n
        start = 0
        if self._gauss_cache is not None and n > 0:
            out[0], self._gauss_cache, start = self._gauss_cache, None, 1
        k = (n - start + 1) // 2
        if k > 0:
            u = self.uniforms(2 * k)
            kernel.default().noise("gaussian", u, np.log1p(-u[0::2]), out[start : start + 2 * k])
            if (n - start) % 2 == 1:
                self._gauss_cache = float(out[n])
        return out[:n]


def seed_stream(base_seed: int, stream_id: int) -> RngStream:
    """Create the deterministic substream for (base_seed, stream_id)."""
    return RngStream(base_seed, stream_id)
