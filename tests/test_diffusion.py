import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddpm1d import kernel
from ddpm1d.diffusion import (
    DIVERGENCE_LIMIT,
    SamplerOptions,
    gaussian_options,
    generate_block,
    mlp_predictor,
    noiseless_reverse_chain,
    oracle_predictor,
    reverse_mean,
)
from ddpm1d.errors import ConfigError, DivergenceError
from ddpm1d.mlp import forward_batch, init_params
from ddpm1d.noise import NoiseSpec, sample_block
from ddpm1d.prng import seed_stream
from ddpm1d.schedule import build_linear, retention

X0 = 7.0
# gaussian noise at every step, the last included
NOISY_LAST_STEP = SamplerOptions(NoiseSpec("gaussian"), final_step_noiseless=False)


@pytest.fixture(scope="module")
def sched():
    return build_linear(1e-4, 0.02, 500)


def q_sample_block(x0, ts, s, eps):
    """Forward corruption sqrt(ab_t) * x0 + sqrt(1 - ab_t) * eps of the 1-based
    steps ``ts``: the first column of the rows the kernel builds for training,
    from the timestep uniforms (t - 1/2) / T, which it maps to t = floor(u * T) + 1."""
    out = np.empty((len(ts), 2))
    u = (np.asarray(ts, dtype=np.float64) - 0.5) / s.T
    kernel.default().rows(u, np.asarray(eps, dtype=np.float64), x0, s.sqrt_alpha_bar,
                          s.sqrt_one_minus_alpha_bar, out)
    return out[:, 0]


def q_sample(x0, t, s, eps):
    """Forward corruption of one value, as a one-element block."""
    return float(q_sample_block(x0, np.array([t]), s, np.array([eps]))[0])


@pytest.mark.parametrize("t", [1, 2, 250, 500])
def test_q_sample_zero_noise(sched, t):
    assert q_sample(X0, t, sched, 0.0) == pytest.approx(retention(sched, t) * X0, rel=1e-15)


def test_q_sample_terminal_value(sched):
    # sqrt(alpha_bar_500) = 0.0797038945 exactly for this schedule
    assert q_sample(X0, 500, sched, 0.0) == pytest.approx(0.5579272614362355, rel=1e-12)


def test_q_sample_out_of_range(sched):
    # a step outside 1..T has its uniform outside [0, 1)
    with pytest.raises(ValueError, match=r"outside \[0, 1\)"):
        q_sample(X0, 0, sched, 0.0)
    with pytest.raises(ValueError, match=r"outside \[0, 1\)"):
        q_sample(X0, 501, sched, 0.0)
    # one bad step anywhere in a block
    with pytest.raises(ValueError, match=r"\(index 1\)"):
        q_sample_block(X0, np.array([3, 0, 7]), sched, np.zeros(3))


@given(
    st.floats(-20, 20),
    st.floats(-5, 5),
    st.floats(-5, 5),
    st.integers(1, 500),
)
def test_q_sample_affine_in_noise(sched, x0, e1, e2, t):
    lhs = q_sample(x0, t, sched, e1) + q_sample(0.0, t, sched, e2 - e1)
    assert lhs == pytest.approx(q_sample(x0, t, sched, e2), rel=1e-12, abs=1e-12)


def test_q_sample_block_matches_scalar(sched):
    # the kernel's rows are the formula in scalar IEEE arithmetic, bit for bit
    ts = np.array([1, 17, 250, 500, 3, 499, 128])
    eps = np.array([0.3, -1.2, 2.0, 0.0, 1e-300, -7.5, 3.25])
    block = q_sample_block(X0, ts, sched, eps)
    alpha_bar = np.cumprod(1.0 - sched.beta)
    by_hand = [
        math.sqrt(alpha_bar[t - 1]) * X0 + math.sqrt(1.0 - alpha_bar[t - 1]) * e
        for t, e in zip(ts.tolist(), eps.tolist())
    ]
    assert block.tobytes() == np.array(by_hand).tobytes()


def test_oracle_inverts_forward_map(sched):
    pred = oracle_predictor(X0, sched)
    g = seed_stream(11, 0)
    ts = np.floor(g.uniforms(1000) * 500).astype(np.int64) + 1
    eps = g.gaussians(1000)
    x_t = q_sample_block(X0, ts, sched, eps)
    for x, t, e in zip(x_t, ts, eps):
        assert pred(x, int(t)) == pytest.approx(e, abs=1e-12)


def test_oracle_zero_at_noiseless_point(sched):
    pred = oracle_predictor(X0, sched)
    for t in (1, 100, 500):
        assert pred(q_sample(X0, t, sched, 0.0), t) == 0.0


def test_step_noise_has_variance_beta():
    # x_1 = x_T / sqrt(alpha_2) + sqrt(beta_2) z_2, x_0 = x_1 / sqrt(alpha_1) + sqrt(beta_1) z_1;
    # the posterior variance beta-tilde would drop z_1, since beta-tilde_1 = 0
    null = lambda x, t: 0.0
    s2 = build_linear(0.1, 0.3, 2)
    x0_hats, diverged = generate_block(null, 5, s2, NOISY_LAST_STEP, seed_stream(0, 0))
    g = seed_stream(0, 0)
    x_T, z2, z1 = g.gaussians(5), g.gaussians(5), g.gaussians(5)
    alpha = 1.0 - s2.beta
    x1 = x_T / np.sqrt(alpha[1]) + np.sqrt(s2.beta[1]) * z2
    assert np.array_equal(x0_hats, x1 / np.sqrt(alpha[0]) + np.sqrt(s2.beta[0]) * z1)
    assert not diverged.any()


def test_reverse_mean_with_null_predictor(sched):
    null = lambda x, t: 0.0
    x = 3.7
    assert reverse_mean(null, x, 42, sched) == pytest.approx(
        x / np.sqrt(1.0 - sched.beta[41]), rel=1e-15
    )


def test_final_step_noiseless_consumes_no_draw(sched, assert_drawn):
    null = lambda x, t: 0.0
    s1 = build_linear(0.5, 0.5, 1)
    # one step: only the init block of 4 gaussians (2 pairs) is drawn
    g = seed_stream(0, 0)
    generate_block(null, 4, s1, gaussian_options(), g)
    assert_drawn(g, 0, 0, 4)
    g = seed_stream(0, 0)
    generate_block(null, 4, s1, NOISY_LAST_STEP, g)
    assert_drawn(g, 0, 0, 8)
    # T steps: the init block, then one block per step above t = 1
    g = seed_stream(0, 0)
    generate_block(null, 2, sched, gaussian_options(), g)
    assert_drawn(g, 0, 0, 2 * sched.T)


def test_reverse_mean_has_the_bytes_of_the_roots_taken_per_step(sched):
    x = seed_stream(5, 0).gaussians(2000) * 3.0
    pred = mlp_predictor(init_params(seed_stream(5, 1)), sched.T)
    alphas = 1.0 - sched.beta
    alpha_bars = np.cumprod(alphas)
    for t in range(1, sched.T + 1):
        beta, alpha, ab = sched.beta[t - 1], alphas[t - 1], alpha_bars[t - 1]
        expected = (x - beta / np.sqrt(1.0 - ab) * pred(x, t)) / np.sqrt(alpha)
        assert reverse_mean(pred, x, t, sched).tobytes() == expected.tobytes(), t


def test_reverse_step_final_equals_mean(sched):
    null = lambda x, t: 0.0
    s1 = build_linear(0.5, 0.5, 1)
    x_T = seed_stream(0, 0).gaussians(4)
    x0_hats, diverged = generate_block(null, 4, s1, gaussian_options(), seed_stream(0, 0))
    assert not diverged.any()
    assert x0_hats == pytest.approx(x_T / np.sqrt(1.0 - s1.beta[0]), rel=1e-15)


def test_noiseless_oracle_chain_contracts_to_target(sched):
    pred = oracle_predictor(X0, sched)
    for start in (-100.0, -7.0, 0.0, 3.14, 7.0, 100.0):
        assert abs(noiseless_reverse_chain(pred, start, sched) - X0) < 1e-6


def test_noiseless_chain_runs_a_network(sched):
    # predictors take ndarrays, so the chain is one chain of a one-element state
    pred = mlp_predictor(init_params(seed_stream(0, 0)), sched.T)
    x = np.array([X0])
    for t in range(sched.T, 0, -1):
        x = reverse_mean(pred, x, t, sched)
    assert noiseless_reverse_chain(pred, X0, sched) == x[0]


def test_noiseless_chain_from_forward_sample(sched):
    pred = oracle_predictor(X0, sched)
    x_T = q_sample(X0, 500, sched, 1.3)
    assert abs(noiseless_reverse_chain(pred, x_T, sched) - X0) < 1e-6


def test_oracle_generation_is_exact_with_noiseless_final_step(sched):
    pred = oracle_predictor(X0, sched)
    x0_hats, diverged = generate_block(pred, 20, sched, gaussian_options(), seed_stream(1, 0))
    assert not diverged.any()
    assert np.all(np.abs(x0_hats - X0) < 1e-9)


def test_oracle_generation_block_mean(sched):
    pred = oracle_predictor(X0, sched)
    x0_hats, diverged = generate_block(pred, 1000, sched, gaussian_options(), seed_stream(1, 1))
    assert not diverged.any()
    assert abs(x0_hats.mean() - X0) < 0.05


def test_oracle_generation_with_final_noise(sched):
    pred = oracle_predictor(X0, sched)
    x0_hats, diverged = generate_block(pred, 1000, sched, NOISY_LAST_STEP, seed_stream(1, 2))
    assert not diverged.any()
    # final injection has std sqrt(beta_1) / sqrt(alpha_1) ~ 0.01
    assert abs(x0_hats.mean() - X0) < 0.01
    assert 0.005 < x0_hats.std() < 0.02


def test_single_step_schedule_recovers_target_exactly():
    s1 = build_linear(0.5, 0.5, 1)
    pred = oracle_predictor(X0, s1)
    x0_hats, diverged = generate_block(pred, 5, s1, gaussian_options(), seed_stream(2, 0))
    assert not diverged.any()
    assert np.all(np.abs(x0_hats - X0) < 1e-9)


def test_forward_marginal_moments(sched):
    t = 250
    n = 100_000
    eps = sample_block(NoiseSpec("gaussian"), n, seed_stream(3, 0))
    x_t = q_sample_block(X0, np.full(n, t), sched, eps)
    ab = np.cumprod(1.0 - sched.beta)[t - 1]
    assert abs(x_t.mean() - np.sqrt(ab) * X0) < 3.0 * np.sqrt((1 - ab) / n)
    assert abs(x_t.var() - (1 - ab)) < 0.05 * (1 - ab)


@pytest.mark.parametrize(
    "kind, step", [("nan", 500), ("exploding", 500), ("nan-below-step-10", 10)],
    ids=["nan", "exploding", "nan-below-step-10"],
)
def test_noiseless_chain_raises_with_step_index_on_divergence(sched, kind, step):
    oracle = oracle_predictor(X0, sched)
    pred = {
        "nan": lambda x, t: float("nan"),
        "exploding": lambda x, t: 1e9,  # |x| passes DIVERGENCE_LIMIT at the first step
        "nan-below-step-10": lambda x, t: oracle(x, t) if t > 10 else float("nan"),
    }[kind]
    with pytest.raises(DivergenceError, match=rf"leaving step t={step} diverged$"):
        noiseless_reverse_chain(pred, 0.5, sched)


def test_generate_block_flags_divergence_per_chain(sched):
    # predictor explodes only for strongly negative states
    pred = oracle_predictor(X0, sched)

    def spiky(x, t):
        base = pred(x, t)
        return base + np.where(np.asarray(x) < -2.5, 1e8, 0.0)

    x0_hats, diverged = generate_block(spiky, 400, sched, gaussian_options(), seed_stream(4, 1))
    assert diverged.any()
    assert not diverged.all()
    good = x0_hats[~diverged]
    assert np.all(np.abs(good - X0) < 1e-6)


def test_mlp_predictor_time_normalization(sched):
    params = init_params(seed_stream(5, 0))
    pred = mlp_predictor(params, sched.T)
    expected = forward_batch(params, np.array([[0.5, 0.5], [1.0, 0.5]]))
    assert np.array_equal(pred(np.array([0.5, 1.0]), 250), expected)


def test_sampler_options_validation():
    g = NoiseSpec("gaussian")
    with pytest.raises(ConfigError):
        SamplerOptions(g, sigma_mode="fixed")
    with pytest.raises(ConfigError):
        SamplerOptions(g, sigma_mode="beta_tilde")


def reference_generate_block(pred, n, s, opts, g):
    """generate_block as a plain loop: x = mean + sigma * z, a new array per step."""
    sigma = np.sqrt(s.beta)
    x = sample_block(opts.noise, n, g)
    alive = np.abs(x) <= DIVERGENCE_LIMIT
    with np.errstate(all="ignore"):
        for t in range(s.T, 0, -1):
            mean = reverse_mean(pred, x, t, s)
            if t == 1 and opts.final_step_noiseless:
                x = mean
            else:
                x = mean + sigma[t - 1] * sample_block(opts.noise, n, g)
            alive &= np.abs(x) <= DIVERGENCE_LIMIT
    return x, ~alive


@pytest.mark.parametrize("n", [1, 7, 2000])
@pytest.mark.parametrize("final_step_noiseless", [True, False])
@pytest.mark.parametrize("predictor", ["oracle", "mlp"])
def test_generate_block_matches_the_reference_loop(sched, n, final_step_noiseless, predictor):
    # one predictor serves both runs, so a reused input buffer cannot leak between them
    pred = (oracle_predictor(X0, sched) if predictor == "oracle"
            else mlp_predictor(init_params(seed_stream(5, 0)), sched.T))
    opts = SamplerOptions(NoiseSpec("mixture", mix_prob=0.5),
                          final_step_noiseless=final_step_noiseless)
    x, diverged = generate_block(pred, n, sched, opts, seed_stream(6, n))
    ref_x, ref_diverged = reference_generate_block(pred, n, sched, opts, seed_stream(6, n))
    assert x.tobytes() == ref_x.tobytes()
    assert np.array_equal(diverged, ref_diverged)


@pytest.mark.parametrize("returns", ["its own array", "its input", "the caller's array"])
def test_generate_block_writes_only_into_arrays_it_made(returns):
    s = build_linear(1e-4, 0.02, 20)
    inner = mlp_predictor(init_params(seed_stream(5, 0)), s.T)
    held = np.linspace(-1.0, 1.0, 7)
    seen = []  # every array a predictor saw or returned, with a copy taken at the time

    def recording(x_t, t):
        eps = {"its own array": lambda: inner(x_t, t), "its input": lambda: x_t,
               "the caller's array": lambda: held}[returns]()
        seen.extend([(x_t, x_t.copy()), (eps, eps.copy())])
        return eps

    x, _ = generate_block(recording, 7, s, NOISY_LAST_STEP, seed_stream(7, 0))
    assert len(seen) == 2 * s.T
    assert all(a.tobytes() == copy.tobytes() for a, copy in seen)
    assert held.tobytes() == np.linspace(-1.0, 1.0, 7).tobytes()
    assert not any(np.shares_memory(x, a) for a, _ in seen)
