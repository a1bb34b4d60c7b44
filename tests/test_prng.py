import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddpm1d.prng import seed_stream


def test_same_key_reproduces_sequence():
    assert np.array_equal(seed_stream(42, 0).uniforms(10), seed_stream(42, 0).uniforms(10))


def test_distinct_stream_ids_differ_within_four_draws():
    assert np.any(seed_stream(42, 0).uniforms(4) != seed_stream(42, 1).uniforms(4))


def test_distinct_base_seeds_differ():
    assert np.any(seed_stream(1, 0).uniforms(4) != seed_stream(2, 0).uniforms(4))


def test_uniform_mean_of_1e6_draws():
    u = seed_stream(42, 7).uniforms(1_000_000)
    assert abs(u.mean() - 0.5) < 0.002


def test_uniform_variance_of_1e6_draws():
    u = seed_stream(42, 7).uniforms(1_000_000)
    assert abs(u.var() - 1.0 / 12.0) < 0.001


def test_uniform_range_and_mantissa_entropy():
    u = seed_stream(1, 0).uniforms(1000)
    assert ((0.0 <= u) & (u < 1.0)).all()
    # draws carry more than 32 bits of mantissa
    assert np.any((u * 2.0**32) % 1.0 != 0.0)


def test_interleaved_streams_match_isolated_sequences():
    a = seed_stream(5, 0)
    b = seed_stream(5, 1)
    interleaved_a, interleaved_b = [], []
    for _ in range(20):
        interleaved_a.append(a.uniforms(1))
        interleaved_b.append(b.uniforms(1))
    assert np.array_equal(np.concatenate(interleaved_a), seed_stream(5, 0).uniforms(20))
    assert np.array_equal(np.concatenate(interleaved_b), seed_stream(5, 1).uniforms(20))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 8, 9])
def test_gaussian_block_equals_scalar(n):
    # n one-element blocks (each odd, so each opens or drains the pair cache)
    # give the same sequence as one block of n
    a = seed_stream(7, 2)
    b = seed_stream(7, 2)
    block = a.gaussians(n)
    singles = np.array([b.gaussians(1)[0] for _ in range(n)])
    assert np.array_equal(block, singles)


def test_gaussian_pair_cache_continuity():
    a = seed_stream(3, 0)
    b = seed_stream(3, 0)
    left = np.concatenate([a.gaussians(3), a.gaussians(4)])
    assert np.array_equal(left, b.gaussians(7))


def test_gaussian_draw_accounting(assert_drawn):
    g = seed_stream(5, 0)
    g.gaussians(4)
    assert_drawn(g, 5, 0, 4)
    g.gaussians(1)  # opens a new pair
    assert_drawn(g, 5, 0, 6)
    g.gaussians(1)  # served from the cache
    assert_drawn(g, 5, 0, 6)


def test_gaussian_moments():
    z = seed_stream(11, 0).gaussians(1_000_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02


@given(st.integers(0, 40), st.integers(0, 40))
def test_uniform_blocks_concatenate(n1, n2):
    a = seed_stream(9, 3)
    b = seed_stream(9, 3)
    left = np.concatenate([a.uniforms(n1), a.uniforms(n2)])
    assert np.array_equal(left, b.uniforms(n1 + n2))


def test_uniform_block_equals_scalar():
    a = seed_stream(13, 1)
    b = seed_stream(13, 1)
    assert np.array_equal(a.uniforms(17), [b.uniforms(1)[0] for _ in range(17)])


def test_negative_stream_id_rejected():
    for base_seed, stream_id in ((0, -1), (-1, 0)):  # a negative base seed too
        with pytest.raises(ValueError):
            seed_stream(base_seed, stream_id)
