import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddpm1d.diffusion import reverse_mean
from ddpm1d.errors import ConfigError
from ddpm1d.schedule import build_linear, retention

# exact product for the (1e-4, 0.02, 500) schedule, computed independently
# at 50-digit precision; the "about 0.081" often quoted for this schedule is
# the first-order approximation exp(-sum(beta)/2) = 0.08107
RETENTION_500 = 0.07970389449089078

# every array a Schedule holds
ARRAYS = ("beta", "sqrt_beta", "sqrt_alpha", "sqrt_alpha_bar", "sqrt_one_minus_alpha_bar")


@pytest.fixture(scope="module")
def paper_schedule():
    return build_linear(1e-4, 0.02, 500)


def alphas_of(s):
    """alpha and alpha_bar by build_linear's own operations on ``s.beta``, after
    asserting that the roots ``s`` stores are ``np.sqrt`` of them, bit for bit:
    an identity on the two is then one on what the Schedule holds."""
    alpha = 1.0 - s.beta
    alpha_bar = np.cumprod(alpha)
    roots = {"sqrt_beta": s.beta, "sqrt_alpha": alpha, "sqrt_alpha_bar": alpha_bar,
             "sqrt_one_minus_alpha_bar": 1.0 - alpha_bar}
    for name, base in roots.items():
        assert getattr(s, name).tobytes() == np.sqrt(base).tobytes(), name
    return alpha, alpha_bar


def test_beta_endpoints_exact(paper_schedule):
    assert paper_schedule.beta[0] == 1e-4
    assert paper_schedule.beta[499] == 0.02


def test_terminal_retention_matches_independent_product(paper_schedule):
    assert retention(paper_schedule, 500) == pytest.approx(RETENTION_500, rel=1e-12)


def test_first_step_retention(paper_schedule):
    assert retention(paper_schedule, 1) == pytest.approx(np.sqrt(1.0 - 1e-4), rel=1e-15)


def test_retention_strictly_decreasing(paper_schedule):
    values = np.array([retention(paper_schedule, t) for t in range(1, 501)])
    assert np.all(np.diff(values) < 0.0)


def test_terminal_state_nearly_pure_noise(paper_schedule):
    _, ab = alphas_of(paper_schedule)
    assert 0.99 < 1.0 - ab[499] < 1.0


def test_alpha_bar_recurrence_exact_in_float(paper_schedule):
    alpha, ab = alphas_of(paper_schedule)
    assert np.array_equal(ab[1:], ab[:-1] * alpha[1:])
    assert ab[0] == alpha[0]


def test_alpha_bar_against_log_sum(paper_schedule):
    alpha, ab = alphas_of(paper_schedule)
    via_logs = np.exp(np.sum(np.log(alpha)))
    direct = ab[499]
    assert abs(via_logs - direct) / direct < 1e-12


def test_single_step_schedule():
    s = build_linear(0.5, 0.5, 1)
    _, ab = alphas_of(s)
    assert ab[0] == 0.5
    assert s.beta[0] == 0.5
    assert {getattr(s, name).shape for name in ARRAYS} == {(1,)}


def test_every_array_is_read_only_and_the_roots_are_numpys_square_roots():
    s = build_linear(1e-4, 0.02, 500)  # straight from build_linear, not a cached copy
    alphas_of(s)
    for name in ARRAYS:
        a = getattr(s, name)
        assert a.shape == (500,) and not a.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.5


def test_out_of_range_step_raises(paper_schedule):
    assert paper_schedule.index(1) == 0
    assert paper_schedule.index(500) == 499
    for t in (0, -1, 501):
        with pytest.raises(IndexError):
            paper_schedule.index(t)
    with pytest.raises(IndexError):
        retention(paper_schedule, 0)
    with pytest.raises(IndexError):
        retention(paper_schedule, 501)
    with pytest.raises(IndexError):
        reverse_mean(lambda x, t: 0.0, 1.0, 501, paper_schedule)


@pytest.mark.parametrize(
    "beta1,betaT,T",
    [(0.0, 0.02, 10), (-0.1, 0.02, 10), (0.02, 0.01, 10), (0.1, 1.0, 10), (0.1, 0.2, 0)],
)
def test_invalid_schedules_rejected(beta1, betaT, T):
    with pytest.raises(ConfigError):
        build_linear(beta1, betaT, T)


@pytest.mark.parametrize("T", [10**17, 10**19], ids=["beyond-memory", "beyond-numpy"])
def test_unallocatable_step_count_rejected(T):
    # sizes beyond any address space: 10**17 float64 values are 800 PB
    with pytest.raises(ConfigError, match="steps"):
        build_linear(1e-4, 0.02, T)


@given(
    st.floats(1e-6, 0.5, allow_nan=False),
    st.floats(1e-6, 0.5, allow_nan=False),
    st.integers(1, 800),
)
def test_schedule_invariants_hold_for_any_valid_input(a, b, T):
    beta1, betaT = min(a, b), max(a, b)
    if T == 1 and beta1 != betaT:  # one step cannot reach beta_end
        with pytest.raises(ConfigError, match="beta_start == beta_end"):
            build_linear(beta1, betaT, T)
        return
    s = build_linear(beta1, betaT, T)
    assert s.beta.shape == (T,)
    assert np.all((s.beta > 0.0) & (s.beta < 1.0))
    assert np.all(np.diff(s.beta) >= 0.0)
    _, ab = alphas_of(s)
    assert np.all(np.diff(ab) < 0.0) or T == 1
    assert 0.0 < ab[-1] <= ab[0] < 1.0
    assert s.beta[0] == beta1
    assert s.beta[s.index(T)] == betaT
