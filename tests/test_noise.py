import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddpm1d import schema
from ddpm1d.errors import ConfigError
from ddpm1d.noise import MomentReport, NoiseSpec, moment_report, sample_block
from ddpm1d.prng import seed_stream

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)


def test_uniform_support():
    x = sample_block(NoiseSpec("uniform"), 100_000, seed_stream(2, 0))
    assert np.all(np.abs(x) <= SQRT3)


def test_arcsine_support():
    x = sample_block(NoiseSpec("arcsine"), 100_000, seed_stream(2, 1))
    assert np.all(np.abs(x) <= SQRT2)


@pytest.mark.parametrize("family", ["gaussian", "uniform", "arcsine"])
def test_unit_family_moments_1e6(family):
    rep = moment_report(NoiseSpec(family), 1_000_000, seed_stream(23, 0))
    assert abs(rep.mean) < 0.01
    assert abs(rep.variance - 1.0) < 0.02


def test_gaussian_excess_kurtosis_near_zero():
    rep = moment_report(NoiseSpec("gaussian"), 1_000_000, seed_stream(23, 1))
    assert abs(rep.kurtosis) < 0.05


def test_uniform_excess_kurtosis():
    rep = moment_report(NoiseSpec("uniform"), 1_000_000, seed_stream(29, 1))
    # a uniform law's excess kurtosis is -6/5
    assert -1.25 < rep.kurtosis < -1.15


def test_arcsine_mean_variance_kurtosis():
    rep = moment_report(NoiseSpec("arcsine"), 1_000_000, seed_stream(29, 0))
    assert abs(rep.mean) < 0.005
    assert abs(rep.variance - 1.0) < 0.01
    # Beta(1/2, 1/2) excess kurtosis is -3/2, location/scale invariant
    assert -1.55 < rep.kurtosis < -1.45


def test_mixture_unnormalized_variance():
    spec = NoiseSpec("mixture", mix_prob=0.9, big_variance=100.0)
    rep = moment_report(spec, 1_000_000, seed_stream(31, 0))
    assert abs(rep.variance - 10.9) < 0.3


def test_mixture_normalized_variance():
    spec = NoiseSpec("mixture", mix_prob=0.9, big_variance=100.0, normalize=True)
    rep = moment_report(spec, 1_000_000, seed_stream(31, 1))
    assert abs(rep.variance - 1.0) < 0.02


def test_arcsine_bimodal_outer_deciles():
    x = sample_block(NoiseSpec("arcsine"), 1_000_000, seed_stream(4, 0))
    counts, _ = np.histogram(x, bins=10, range=(-SQRT2, SQRT2))
    for middle in (counts[4], counts[5]):
        assert counts[0] > middle
        assert counts[9] > middle


def test_moment_report_two_draws_smoke():
    rep = moment_report(NoiseSpec("gaussian"), 2, seed_stream(0, 0))
    assert np.isfinite([rep.mean, rep.variance, rep.kurtosis]).all()
    assert rep.variance >= 0.0


class ZeroUniforms:
    """A stream whose uniforms are all 0, so every uniform-family draw is -sqrt(3)."""

    def uniforms(self, n):
        return np.zeros(n)


def test_moment_report_of_a_constant_block_has_zero_variance_and_kurtosis():
    rep = moment_report(NoiseSpec("uniform"), 2, ZeroUniforms())
    assert rep == MomentReport(-SQRT3, 0.0, 0.0)


def test_moment_report_rejects_tiny_n():
    with pytest.raises(ValueError):
        moment_report(NoiseSpec("gaussian"), 1, seed_stream(0, 0))


@pytest.mark.parametrize("family", ["gaussian", "uniform", "arcsine"])
def test_block_equals_scalar_for_unit_families(family):
    # one block of 9 equals 9 one-element blocks: the split does not matter
    spec = NoiseSpec(family)
    a = seed_stream(7, 1)
    b = seed_stream(7, 1)
    block = sample_block(spec, 9, a)
    singles = np.array([sample_block(spec, 1, b)[0] for _ in range(9)])
    assert np.array_equal(block, singles)


def test_scalar_draw_accounting(assert_drawn):
    # one-element blocks; uniform and arcsine: one draw per value
    for family in ("uniform", "arcsine"):
        g = seed_stream(11, 0)
        sample_block(NoiseSpec(family), 1, g)
        assert_drawn(g, 11, 0, 1)
    # mixture: selector plus a gaussian from the shared pair cache
    g = seed_stream(11, 1)
    spec = NoiseSpec("mixture")
    sample_block(spec, 1, g)
    assert_drawn(g, 11, 1, 3)
    sample_block(spec, 1, g)
    assert_drawn(g, 11, 1, 4)
    # a block of n: n selectors, then n gaussians from ceil(n / 2) pairs
    g = seed_stream(11, 2)
    sample_block(spec, 5, g)
    assert_drawn(g, 11, 2, 5 + 6)


def test_mixture_block_layout_selectors_then_gaussians():
    cases = [(0.9, 100.0, False), (0.9, 100.0, True), (0.5, 100.0, True), (0.3, 2.5, True)]
    for p, bv, normalize in cases:
        block = sample_block(NoiseSpec("mixture", p, bv, normalize), 10, seed_stream(17, 0))
        # reproduce by hand from a fresh stream
        h = seed_stream(17, 0)
        narrow = h.uniforms(10) < p
        z = h.gaussians(10)
        expected = np.where(narrow, z, z * np.sqrt(bv))
        if normalize:
            # in the sampler's order: 0.9 + 0.1 * 100.0 is 10.9,
            # but p + (1 - p) * bv is 10.899999999999999
            expected = expected / np.sqrt(p + (1.0 - p) * bv)
        assert np.array_equal(block, expected), (p, bv, normalize)


def test_mixture_prob_one_degenerates_to_standard_normal():
    spec = NoiseSpec("mixture", mix_prob=1.0, big_variance=100.0)
    x = sample_block(spec, 200_000, seed_stream(6, 0))
    assert abs(x.var() - 1.0) < 0.02
    # the wide component is never selected
    assert np.abs(x).max() < 6.0


def test_mixture_wide_component_frequency():
    spec = NoiseSpec("mixture", mix_prob=0.5, big_variance=100.0)
    x = sample_block(spec, 200_000, seed_stream(6, 1))
    wide_fraction = np.mean(np.abs(x) > 4.0)
    # P(|x| > 4) = 0.5 * P(|N(0,1)| > 4) + 0.5 * P(|N(0,100)| > 4) ~ 0.5 * 0.689
    assert 0.30 < wide_fraction < 0.40


def test_invalid_specs_rejected():
    with pytest.raises(ConfigError):
        NoiseSpec("pareto")
    with pytest.raises(ConfigError):
        NoiseSpec("mixture", mix_prob=1.5)
    with pytest.raises(ConfigError):
        NoiseSpec("mixture", mix_prob=0.5, big_variance=-1.0)
    with pytest.raises(ConfigError, match="mix_prob"):
        NoiseSpec("mixture", mix_prob=True)
    with pytest.raises(ConfigError, match="mix_prob"):
        NoiseSpec.from_dict({"family": "mixture", "mix_prob": True})


@pytest.mark.parametrize("big_variance", [float("nan"), float("inf")])
def test_non_finite_big_variance_rejected(big_variance):
    with pytest.raises(ConfigError, match="big_variance"):
        NoiseSpec("mixture", mix_prob=0.5, big_variance=big_variance)
    with pytest.raises(ConfigError, match="big_variance"):
        NoiseSpec.from_dict({"family": "mixture", "big_variance": big_variance})


@pytest.mark.parametrize("value", ["no", "false", 0, 1, None])
def test_normalize_must_be_a_json_boolean(value):
    with pytest.raises(ConfigError, match="normalize"):
        NoiseSpec.from_dict({"family": "mixture", "normalize": value})


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="spread"):
        NoiseSpec.from_dict({"family": "gaussian", "spread": 2})
    with pytest.raises(ConfigError):
        NoiseSpec.from_dict({})
    for not_an_object in ("gaussian", [], 5):
        with pytest.raises(ConfigError, match="noise must be a JSON object"):
            NoiseSpec.from_dict(not_an_object)


@given(
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(0.01, 1000.0, allow_nan=False),
    st.booleans(),
)
def test_mixture_dict_roundtrip(p, bv, norm):
    spec = NoiseSpec("mixture", p, bv, norm)
    assert NoiseSpec.from_dict(schema.to_json(spec)) == spec


def test_plain_family_dict_roundtrip():
    for family in ("gaussian", "uniform", "arcsine"):
        assert NoiseSpec.from_dict({"family": family}) == NoiseSpec(family)
        spec = NoiseSpec(family, mix_prob=0.3)
        assert NoiseSpec.from_dict(schema.to_json(spec)) == spec


def test_labels():
    assert NoiseSpec("gaussian").label() == "gaussian"
    assert NoiseSpec("mixture", mix_prob=0.9).label() == "mix0.9"
    assert NoiseSpec("mixture", mix_prob=0.5).label() == "mix0.5"
