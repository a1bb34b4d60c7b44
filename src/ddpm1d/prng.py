"""Deterministic, substreamed random source.

Every trial derives all of its randomness from a ``(base_seed, stream_id)``
pair, so runs are bit-reproducible and trials can execute in parallel in any
order. Substreams are derived by SeedSequence hashing (no fast-forwarding),
which makes distinct stream ids statistically independent by construction.

Draws come in blocks. Gaussians come from the Box-Muller transform on
consecutive uniform pairs; both outputs of a pair are consumed in order, and
when a block has odd length the unused second variate is cached and opens the
next gaussian block on the same stream. The transform goes through numpy
ufuncs, never the ``math`` module, so an element's value does not depend on
the block length: a stream's gaussian sequence is the same however it is split
into blocks (the test suite checks this).
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

_TWO_PI = 2.0 * np.pi


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
        out = np.empty(n)
        start = 0
        if self._gauss_cache is not None and n > 0:
            out[0] = self._gauss_cache
            self._gauss_cache = None
            start = 1
        m = n - start
        if m > 0:
            k = (m + 1) // 2
            u = self.uniforms(2 * k)
            r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
            theta = _TWO_PI * u[1::2]
            z = np.empty(2 * k)
            z[0::2] = r * np.cos(theta)
            z[1::2] = r * np.sin(theta)
            out[start:] = z[:m]
            if m % 2 == 1:
                self._gauss_cache = float(z[m])
        return out


def seed_stream(base_seed: int, stream_id: int) -> RngStream:
    """Create the deterministic substream for (base_seed, stream_id)."""
    return RngStream(base_seed, stream_id)
