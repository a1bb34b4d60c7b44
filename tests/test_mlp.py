import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddpm1d import mlp
from ddpm1d.mlp import (
    HIDDEN,
    INIT_DRAWS,
    N_PARAMS,
    AdamState,
    TrainBatch,
    adam_step,
    finite_diff_check,
    forward_batch,
    init_params,
    loss_and_grad_arrays,
)
from ddpm1d.prng import seed_stream


def random_params(seed):
    return init_params(seed_stream(seed, 0))


def random_batch(seed, n=8):
    g = seed_stream(seed, 1)
    inputs = np.column_stack([g.gaussians(n) * 3.0, g.uniforms(n)])
    return TrainBatch(inputs, g.gaussians(n))


# the documented flat layout [W1 rows (32 x 2), b1 (32), W2 (32), b2], sliced
# here without mlp's own slices so that tests pin it from outside
def unpack(theta):
    return theta[:64].reshape(32, 2), theta[64:96], theta[96:128], theta[128]


# straight-line reimplementation of the forward pass, used as an oracle
def forward_by_hand(theta, x_t, t_norm):
    W1, b1, W2, b2 = unpack(theta)
    total = b2
    for i in range(HIDDEN):
        z = W1[i, 0] * x_t + W1[i, 1] * t_norm + b1[i]
        if z > 0.0:
            total += W2[i] * z
    return total


def test_param_count():
    assert N_PARAMS == 129
    assert init_params(seed_stream(0, 0)).shape == (129,)


def test_init_and_adam_return_fresh_flat_float64_vectors():
    p = init_params(seed_stream(0, 0))
    q, _ = adam_step(p, AdamState.zeros(), np.ones(N_PARAMS), lr=1e-3)
    for theta in (p, q):
        assert type(theta) is np.ndarray
        assert theta.shape == (N_PARAMS,) and theta.dtype == np.float64
    assert not np.shares_memory(p, q)


def test_init_bounds_and_zero_biases():
    W1, b1, W2, b2 = unpack(init_params(seed_stream(42, 0)))
    assert np.abs(W1).max() <= np.sqrt(6.0 / 34.0)
    assert np.abs(W2).max() <= np.sqrt(6.0 / 33.0)
    assert np.all(b1 == 0.0)
    assert b2 == 0.0


def test_init_deterministic_and_draw_count(assert_drawn):
    g = seed_stream(7, 0)
    p = init_params(g)
    assert_drawn(g, 7, 0, INIT_DRAWS)
    q = init_params(seed_stream(7, 0))
    assert np.array_equal(p, q)


def test_forward_zero_network_outputs_bias():
    p = np.zeros(N_PARAMS)
    p[-1] = 3.0
    X = np.array([[-5.0, 0.5], [0.0, 0.5], [2.5, 0.5]])
    assert np.all(forward_batch(p, X) == 3.0)


def test_forward_constant_hidden_layer():
    p = np.concatenate([np.zeros(2 * HIDDEN), np.full(HIDDEN, 0.25), np.ones(HIDDEN), [0.0]])
    out = forward_batch(p, np.array([[1.0, 0.1], [-9.0, 0.9]]))
    assert out == pytest.approx([HIDDEN * 0.25, HIDDEN * 0.25])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forward_matches_hand_oracle(seed):
    p = random_params(seed)
    g = seed_stream(seed, 5)
    X = np.column_stack([g.gaussians(20) * 4.0, g.uniforms(20)])
    by_hand = [forward_by_hand(p, x_t, t_norm) for x_t, t_norm in X]
    assert forward_batch(p, X) == pytest.approx(by_hand, abs=1e-12)


def test_forward_batch_matches_scalar():
    # a block of 16 rows equals 16 one-row blocks
    p = random_params(3)
    g = seed_stream(3, 5)
    X = np.column_stack([g.gaussians(16) * 2.0, g.uniforms(16)])
    batch_out = forward_batch(p, X)
    row_out = np.array([forward_batch(p, X[i : i + 1])[0] for i in range(len(X))])
    assert np.allclose(batch_out, row_out, atol=1e-14)


def test_loss_zero_at_perfect_prediction():
    p = np.zeros(N_PARAMS)
    p[-1] = 1.5
    batch = TrainBatch(np.array([[0.3, 0.1], [0.9, 0.7]]), np.array([1.5, 1.5]))
    loss, grad = loss_and_grad_arrays(p, batch.inputs, batch.targets)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_output_bias_gradient_single_sample():
    p = random_params(4)
    x_t, t_norm = 0.5, 0.2
    batch = TrainBatch(np.array([[x_t, t_norm]]), np.array([0.0]))
    pred = forward_batch(p, batch.inputs)[0]
    _, grad = loss_and_grad_arrays(p, batch.inputs, batch.targets)
    assert grad[-1] == pytest.approx(2.0 * pred, rel=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_gradient_matches_finite_differences(seed):
    worst = finite_diff_check(random_params(seed), random_batch(seed), h=1e-6)
    assert worst < 1e-5


def test_finite_diff_zero_case():
    batch = TrainBatch(np.zeros((4, 2)), np.zeros(4))
    assert finite_diff_check(np.zeros(N_PARAMS), batch) == 0.0


def test_finite_diff_catches_a_wrong_gradient(monkeypatch):
    # the check takes its loss and its gradient from one function; a gradient
    # that is off by 1% in one component must still show
    p, batch = random_params(0), random_batch(0)
    exact = mlp.loss_and_grad_arrays

    def off_by_one_percent(*args):
        loss, grad = exact(*args)
        grad[-1] *= 1.01
        return loss, grad

    assert finite_diff_check(p, batch) < 1e-5
    monkeypatch.setattr(mlp, "loss_and_grad_arrays", off_by_one_percent)
    assert finite_diff_check(p, batch) > 1e-3


def test_coarse_step_is_worse():
    p, batch = random_params(1), random_batch(1)
    assert finite_diff_check(p, batch, h=1e-1) > finite_diff_check(p, batch, h=1e-6)


def test_adam_zero_gradient_is_fixed_point():
    p = random_params(5)
    s = AdamState.zeros()
    q, s2 = adam_step(p, s, np.zeros(N_PARAMS), lr=1e-3)
    assert np.array_equal(q, p)
    assert s2.step_count == 1


def test_adam_first_step_magnitude_near_lr():
    p = np.zeros(N_PARAMS)
    grad = np.zeros(N_PARAMS)
    grad[-1] = 0.37
    q, _ = adam_step(p, AdamState.zeros(), grad, lr=1e-3)
    delta = p[-1] - q[-1]
    # bias-corrected first step: lr * |g| / (|g| + eps)
    assert delta == pytest.approx(1e-3, rel=1e-6)
    assert np.all(q[:-1] == 0.0)


def test_adam_two_steps_match_hand_computation():
    # one step cannot pin the rates (bias correction cancels beta1 and beta2);
    # a second step with another gradient depends on both, and the ~1e-8
    # component also on eps
    g1 = np.array([0.5, 3.0, 1e-8])
    g2 = np.array([-2.0, 3.0, 3e-8])
    p, s = np.zeros(N_PARAMS), AdamState.zeros()
    for g in (g1, g2):
        grad = np.zeros(N_PARAMS)
        grad[:3] = g
        p, s = adam_step(p, s, grad, lr=1e-3)

    m1, v1 = 0.1 * g1, 0.001 * g1 * g1
    theta1 = -1e-3 * (m1 / 0.1) / (np.sqrt(v1 / 0.001) + 1e-8)
    m2, v2 = 0.9 * m1 + 0.1 * g2, 0.999 * v1 + 0.001 * g2 * g2
    m_hat, v_hat = m2 / (1.0 - 0.9**2), v2 / (1.0 - 0.999**2)
    theta2 = theta1 - 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert s.step_count == 2
    assert s.m[:3] == pytest.approx(m2, rel=1e-12)
    assert s.v[:3] == pytest.approx(v2, rel=1e-12)
    assert p[:3] == pytest.approx(theta2, rel=1e-12)
    assert np.all(p[3:] == 0.0)


def test_adam_converges_on_scalar_quadratic():
    # drive the output bias toward 2 on f(w) = (w - 2)^2
    p = np.zeros(N_PARAMS)
    s = AdamState.zeros()
    for _ in range(100):
        grad = np.zeros(N_PARAMS)
        grad[-1] = 2.0 * (p[-1] - 2.0)
        p, s = adam_step(p, s, grad, lr=0.1)
    assert abs(p[-1] - 2.0) < 0.5
    assert (p[-1] - 2.0) ** 2 < 4.0  # below the starting loss


def test_adam_update_is_pure():
    p = random_params(6)
    s = AdamState.zeros()
    batch = random_batch(6)
    _, grad = loss_and_grad_arrays(p, batch.inputs, batch.targets)
    theta_before = p.copy()
    q1, s1 = adam_step(p, s, grad, lr=1e-3)
    q2, s2 = adam_step(p, s, grad, lr=1e-3)
    assert np.array_equal(q1, q2)
    assert np.array_equal(s1.m, s2.m)
    assert np.array_equal(s1.v, s2.v)
    assert np.array_equal(p, theta_before)
    assert s.step_count == 0


def test_adam_second_moment_nonnegative():
    p = random_params(8)
    s = AdamState.zeros()
    for seed in range(3):
        batch = random_batch(seed)
        _, grad = loss_and_grad_arrays(p, batch.inputs, batch.targets)
        p, s = adam_step(p, s, grad, lr=1e-3)
    assert np.all(s.v >= 0.0)
    assert s.step_count == 3


def test_bad_learning_rate_rejected():
    p = random_params(0)
    with pytest.raises(ValueError):
        adam_step(p, AdamState.zeros(), np.zeros(N_PARAMS), lr=0.0)


def test_batch_holds_what_the_kernel_reads():
    # a Fortran-ordered integer X and a strided y become C-contiguous float64 arrays
    batch = TrainBatch(np.asfortranarray([[1, 2], [3, 4], [5, 6]]), np.arange(6)[::2])
    for a in (batch.inputs, batch.targets):
        assert a.flags.c_contiguous and a.dtype == np.float64
    assert finite_diff_check(init_params(seed_stream(4, 0)), batch) < 1e-5


def test_batch_validation():
    with pytest.raises(ValueError):
        TrainBatch(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        TrainBatch(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        TrainBatch(np.array([[np.inf, 0.0]]), np.array([0.0]))


@given(st.floats(-10, 10), st.floats(-5, 5), st.floats(0, 1))
def test_forward_affine_in_output_bias(shift, x_t, t_norm):
    p = random_params(2)
    q = p.copy()
    q[-1] += shift
    X = np.array([[x_t, t_norm]])
    assert forward_batch(q, X)[0] == pytest.approx(
        forward_batch(p, X)[0] + shift, rel=1e-9, abs=1e-9
    )
