import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ddpm1d.prng import seed_stream

settings.register_profile(
    "ddpm1d",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ddpm1d")


def multiarray_umath():
    """numpy's ``_multiarray_umath``, which holds its CPU tables; numpy < 2 keeps it
    under ``numpy.core``."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    return _multiarray_umath


@pytest.fixture
def assert_drawn():
    """``assert_drawn(g, seed, stream_id, k)`` asserts that stream ``g`` has drawn
    ``k`` uniforms: its next uniforms are those of a fresh ``(seed, stream_id)``
    stream after ``k`` draws. ``g`` itself does not move."""

    def check(g, seed, stream_id, k):
        fresh = seed_stream(seed, stream_id)
        fresh.uniforms(k)
        assert np.array_equal(copy.deepcopy(g).uniforms(5), fresh.uniforms(5))

    return check
