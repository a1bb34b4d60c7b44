"""The compiled network kernel against a numpy reference, its input checks,
its build cache and its independence from optimization and ISA flags; and
``train_epoch``, one call per training epoch, against the loop of
``loss_and_grad_arrays`` and ``adam_step`` that it replaces.

The numpy functions below are the network's arithmetic as it stood before the
kernel: matrix products for the forward pass and the gradient, numpy's
elementwise Adam. They sum in another order than the kernel, so the forward
pass, the loss and the gradient agree within 1e-12 relative; the Adam update is
elementwise in both and agrees bit for bit. ``ordered_forward`` sums in the
kernel's own order, unit by unit for every row, and the forward pass agrees
with it bit for bit, up to the sign and payload of a NaN.
"""

import functools
import hashlib
import json
import math
import re
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import multiarray_umath

from ddpm1d import cli, kernel, mlp, noise
from ddpm1d.experiment import ExperimentConfig, init_stream, train_stream, train_trial
from ddpm1d.mlp import (
    HIDDEN,
    N_IN,
    N_PARAMS,
    AdamState,
    TrainBatch,
    adam_step,
    finite_diff_check,
    forward_batch,
    init_params,
    loss_and_grad_arrays,
    train_epoch,
)
from ddpm1d.noise import NoiseSpec
from ddpm1d.prng import seed_stream
from ddpm1d.schedule import Schedule, build_linear

SRC = Path(__file__).resolve().parents[1] / "src"


def unpack(theta):
    return (theta[: HIDDEN * N_IN].reshape(HIDDEN, N_IN), theta[64:96], theta[96:128],
            theta[128])


def numpy_forward(theta, X):
    W1, b1, W2, b2 = unpack(theta)
    return np.maximum(X @ W1.T + b1, 0.0) @ W2 + b2


def ordered_forward(theta, X):
    """The kernel's order: each row sums relu(z_j) * W2_j over j = 0..31 from
    0.0, z_j being (x * W1[j, 0] + t * W1[j, 1]) + b1_j, then adds b2; the
    ReLU passes NaN on. Units in Python, rows in numpy."""
    x, t = X[:, 0], X[:, 1]
    s = np.zeros(len(X))
    with np.errstate(all="ignore"):
        for j in range(HIDDEN):
            z = (x * theta[N_IN * j] + t * theta[N_IN * j + 1]) + theta[64 + j]
            s = s + np.where(z <= 0.0, 0.0, z) * theta[96 + j]
        return s + theta[128]


def same_bits(a, b):
    """Byte equality with every NaN made one NaN. IEEE 754 leaves the sign and
    payload of a NaN result open: where two NaNs meet, x86 keeps the first
    operand's, and a compiler may put a commutative operation's operands in
    either order."""
    a, b = (np.where(np.isnan(v), np.nan, v) for v in (a, b))
    return a.tobytes() == b.tobytes()


def numpy_loss_and_grad(theta, X, y):
    W1, b1, W2, b2 = unpack(theta)
    n = len(y)
    z1 = X @ W1.T + b1
    h = np.maximum(z1, 0.0)
    err = h @ W2 + b2 - y
    loss = float(err @ err) / n
    dout = (2.0 / n) * err
    dz1 = np.outer(dout, W2) * (z1 > 0.0).astype(np.float64)
    grad = np.concatenate([(dz1.T @ X).reshape(-1), dz1.sum(axis=0), dout @ h, [dout.sum()]])
    return loss, grad


# Adam's defaults (Kingma & Ba), which the kernel fixes in C
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def numpy_adam(theta, s, grads, lr):
    t = s.step_count + 1
    m = BETA1 * s.m + (1.0 - BETA1) * grads
    v = BETA2 * s.v + (1.0 - BETA2) * (grads * grads)
    m_hat = m / (1.0 - BETA1**t)
    v_hat = v / (1.0 - BETA2**t)
    return theta - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), AdamState(m, v, t)


def inputs(seed, n):
    g = seed_stream(seed, 7)
    return np.column_stack([g.gaussians(n) * 3.0, g.uniforms(n)]), g.gaussians(n)


def random_theta(seed):
    """Glorot weights with nonzero biases, so that every parameter block counts."""
    theta = init_params(seed_stream(seed, 0))
    theta[64:96] = seed_stream(seed, 3).gaussians(32) * 0.5
    theta[128] = 0.3
    return theta


def assert_close(a, b, rel=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    assert np.all(np.abs(a - b) <= rel * np.maximum(np.abs(b).max(), 1e-300)), np.abs(a - b).max()


# 64 is a full training batch and 40 the remainder of 1000 samples in batches of 64
@pytest.mark.parametrize("n", [1, 40, 64, 2000])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kernel_matches_numpy_reference(seed, n):
    theta = random_theta(seed)
    X, y = inputs(seed, n)
    assert_close(forward_batch(theta, X), numpy_forward(theta, X))
    loss, grad = loss_and_grad_arrays(theta, X, y)
    ref_loss, ref_grad = numpy_loss_and_grad(theta, X, y)
    assert_close(loss, ref_loss)
    assert_close(grad, ref_grad)


# 8 is the kernel's block of rows; 7, 9 and 2001 leave a partial last block
@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 2000, 2001])
@pytest.mark.parametrize("where, values", [
    (None, ()),
    ("X", (np.nan, np.inf, -np.inf, -0.0)),
    ("theta", (np.inf, -np.inf, -0.0)),
    ("theta", (np.nan,)),  # a NaN anywhere in theta makes every output NaN
], ids=["finite", "X", "theta-inf", "theta-nan"])
def test_forward_sums_in_the_kernel_order(n, where, values):
    g = seed_stream(n, 9)
    theta = random_theta(n % 3)
    X = np.column_stack([g.gaussians(n) * 3.0, g.uniforms(n)])
    if where is not None and n > 0:
        a = X if where == "X" else theta
        k = a.size // 8 + 1 if where == "X" else len(values)
        a.flat[np.floor(g.uniforms(k) * a.size).astype(int)] = np.resize(values, k)
    assert same_bits(forward_batch(theta, X), ordered_forward(theta, X))


def test_zero_preactivation_has_zero_subgradient():
    # unit 0 has z = x * 1 + t * 0 + 0 = 0 exactly at x = 0; unit 1 is active
    theta = np.zeros(N_PARAMS)
    theta[0], theta[3], theta[65] = 1.0, 1.0, 0.5
    theta[96], theta[97] = 2.0, 3.0
    X = np.array([[0.0, 0.25]])
    loss, grad = loss_and_grad_arrays(theta, X, np.array([1.0]))
    ref_loss, ref_grad = numpy_loss_and_grad(theta, X, np.array([1.0]))
    assert loss == ref_loss
    assert np.array_equal(grad, ref_grad)
    assert grad[0] == grad[1] == grad[64] == grad[96] == 0.0
    assert grad[3] != 0.0 and grad[65] != 0.0 and grad[97] != 0.0


# the ISA variants of the build; the gradient runs 2, 4 or 8 units to a vector
ISAS = {"baseline": (), "avx2": ("-mavx2",), "avx512f": ("-mavx512f",)}


def host_runs(name):
    feature = {"avx2": "AVX2", "avx512f": "AVX512F"}.get(name)
    return feature is None or bool(multiarray_umath().__cpu_features__.get(feature))


def isa_or_skip(name):
    """ISAS[name], or a skip where the host does not run it."""
    if not host_runs(name):
        pytest.skip(f"the host does not run {name}")
    return ISAS[name]


@pytest.fixture(scope="session")
def build(tmp_path_factory):
    """``build(flags)``: the kernel built with ``flags`` into one private directory,
    where ``kernel.load``'s hash names let every later test load that build again
    instead of compiling it. Tests of the cache itself keep their own directories."""
    return functools.partial(kernel.load, tmp_path_factory.mktemp("builds"))


@pytest.fixture(scope="module")
def isa_builds(build):
    """The kernel built for each ISA variant that the host runs, by name."""
    return {name: build((*kernel.FLAGS, *isa)) for name, isa in ISAS.items() if host_runs(name)}


def loop_loss_and_grad(theta, X, y):
    """The loss and gradient as the kernel summed them when it skipped off
    units: each row in order adds its b2 term, then its terms for units
    0..31, skipping a unit unless z > 0; in Python floats, on the predictions
    of ``ordered_forward``."""
    th, n = [float(v) for v in theta], len(y)
    pred, scale = ordered_forward(theta, X), 2.0 / n
    g, sq = [0.0] * N_PARAMS, 0.0
    for i in range(n):
        x, t = float(X[i, 0]), float(X[i, 1])
        e = float(pred[i]) - float(y[i])
        d = scale * e
        sq += e * e
        g[128] += d
        for j in range(HIDDEN):
            z = (x * th[N_IN * j] + t * th[N_IN * j + 1]) + th[64 + j]
            if not z > 0.0:
                continue
            dz = d * th[96 + j]
            g[96 + j] += d * z
            g[N_IN * j] += dz * x
            g[N_IN * j + 1] += dz * t
            g[64 + j] += dz
    return sq / n, np.array(g)


# 1, 7 and 9 leave a partial block of rows, and 64 is a training batch
@pytest.mark.parametrize("n", [1, 7, 9, 64])
@pytest.mark.parametrize("case", ["finite", "z-zero", "zero-error", "nan-target", "inf-target"])
def test_unit_lanes_keep_the_skipping_loops_bits(isa_builds, n, case):
    theta = random_theta(n)
    X, y = inputs(n, n)
    with np.errstate(all="ignore"):
        if case == "z-zero":  # unit 0's z is exactly 0 in row 0, and off
            theta[0:2], theta[64], X[0, 0] = (1.0, 0.0), 0.0, 0.0
        elif case == "zero-error":  # row 0's d is +0, and an on unit's dz = d * W2 is -0
            theta[N_IN * 5 : N_IN * 5 + 2], theta[64 + 5], theta[96 + 5] = (0.0, 0.0), 1.0, -0.5
            y[0] = ordered_forward(theta, X)[0]
        elif case == "nan-target":
            y[n // 2] = np.nan
        elif case == "inf-target":
            y[-1] = np.inf
        loss, grad = loop_loss_and_grad(theta, X, y)
    assert isa_builds
    for name, k in isa_builds.items():
        out = np.empty(N_PARAMS)
        got = k.loss_and_grad(theta, X, y, out)
        assert same_bits(np.array([got]), np.array([loss])), name
        assert same_bits(out, grad), name


def test_adam_is_bit_equal_to_numpy():
    assert_adam_matches_numpy(start=0)


def test_adam_is_bit_equal_to_numpy_at_a_full_trials_step_counts():
    # 47_990 reaches the step counts of a full 3000-epoch trial: the kernel's
    # pow(beta, t) must equal Python's beta ** t there too
    assert_adam_matches_numpy(start=47_990)


def assert_adam_matches_numpy(start):
    theta = random_theta(4)
    s = AdamState(np.zeros(N_PARAMS), np.zeros(N_PARAMS), start)
    ref_theta, ref_s = theta.copy(), AdamState(np.zeros(N_PARAMS), np.zeros(N_PARAMS), start)
    for k in range(20):
        X, y = inputs(k, 64)
        _, grad = loss_and_grad_arrays(theta, X, y)
        theta, s = adam_step(theta, s, grad, 1e-3)
        ref_theta, ref_s = numpy_adam(ref_theta, ref_s, grad, 1e-3)
        assert theta.tobytes() == ref_theta.tobytes()
        assert s.m.tobytes() == ref_s.m.tobytes() and s.v.tobytes() == ref_s.v.tobytes()
        assert s.step_count == ref_s.step_count


def test_adam_flushes_subnormal_first_moments_and_keeps_numpys_theta_and_v(isa_builds):
    # a dead unit's gradient is exactly 0, so its m decays by 0.9 a step into the
    # subnormals and sticks at 5 * 2**-1074 in numpy; the kernel stores +0 there
    # instead. The other values get real gradients, all of them after step 300,
    # and a few get gradients whose (1 - beta1) * g is already subnormal
    theta0, tiny = random_theta(8), np.finfo(np.float64).tiny
    dead = np.arange(N_PARAMS) % 3 != 0
    m0 = np.where(dead, np.logspace(-300, -323.3, N_PARAMS), 1e-3) * (-1.0) ** np.arange(N_PARAMS)
    assert isa_builds
    for name, k in isa_builds.items():
        theta, m, v = theta0.copy(), m0.copy(), np.zeros(N_PARAMS)
        ref_theta, ref_s = theta0.copy(), AdamState(m0.copy(), np.zeros(N_PARAMS))
        stuck = 0
        for t in range(1, 321):
            X, y = inputs(t, 64)
            _, grad = loss_and_grad_arrays(theta, X, y)
            if t <= 300:
                grad[dead] = 0.0
                grad[3:12:3] = 1e-310
            k.adam(theta, m, v, grad, 1e-3, t)
            ref_theta, ref_s = numpy_adam(ref_theta, ref_s, grad, 1e-3)
            flushed = np.where(np.abs(ref_s.m) < tiny, 0.0, ref_s.m)
            assert theta.tobytes() == ref_theta.tobytes(), (name, t)
            assert v.tobytes() == ref_s.v.tobytes(), (name, t)
            assert m.tobytes() == flushed.tobytes(), (name, t)
            stuck += int((np.abs(ref_s.m) == np.nextafter(0.0, 1.0)).sum())
        assert stuck > 0  # numpy's moments did reach the stuck value


def test_finite_differences_still_pass_on_the_remainder_batch():
    X, y = inputs(5, 40)
    assert finite_diff_check(random_theta(5), TrainBatch(X, y)) < 1e-5


def test_wrong_sizes_raise_instead_of_reading_past_the_end():
    theta = random_theta(0)
    X, y = inputs(0, 8)
    with pytest.raises(ValueError, match="129"):
        forward_batch(theta[:128], X)
    with pytest.raises(ValueError, match="129"):
        loss_and_grad_arrays(theta[:128], X, y)
    with pytest.raises(ValueError, match="129"):
        adam_step(theta[:128], AdamState.zeros(), np.zeros(N_PARAMS), 1e-3)
    X3 = np.column_stack([X, X[:, 0]])
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        forward_batch(theta, X3)
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        loss_and_grad_arrays(theta, X3, y)
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        loss_and_grad_arrays(theta, X, y[:7])
    with pytest.raises(ValueError, match="empty"):
        loss_and_grad_arrays(theta, X[:0], y[:0])
    assert forward_batch(theta, X[:0]).shape == (0,)
    # the raw entry points read only C-contiguous float64 buffers
    out = np.empty(8)
    with pytest.raises(ValueError, match="float64"):
        kernel.default().forward(theta.astype(np.float32), X, out)
    with pytest.raises(ValueError):  # not C-contiguous
        kernel.default().forward(theta, np.asfortranarray(X), out)


def test_wrappers_refuse_what_the_kernel_cannot_read_as_it_is():
    # the wrappers convert nothing: a list theta, a Fortran-ordered X, an int64 y
    # and a negative-stride view each raise a ValueError that names the argument,
    # and nothing is written
    X, y = inputs(1, 16)
    _, grad = loss_and_grad_arrays(random_theta(1), X, y)
    u, eps = epoch_draws(NoiseSpec("gaussian"), 16, seed_stream(1, 1))
    F = np.asfortranarray(X)
    refused = {
        "theta must be a C-contiguous float64 array": [
            lambda th, s: forward_batch(list(th), X),
            lambda th, s: loss_and_grad_arrays(list(th), X, y),
            lambda th, s: adam_step(list(th), s, grad, 1e-3),
            lambda th, s: train_epoch(list(th), s, u, eps, 7.0, SCHED, 8, 1e-3),
        ],
        "y must be a float64 array": [
            lambda th, s: loss_and_grad_arrays(th, X, y.astype(np.int64)),
        ],
        "eps must be a float64 array": [
            lambda th, s: train_epoch(th, s, u, eps.astype(np.int64), 7.0, SCHED, 8, 1e-3),
        ],
        "X must be a C-contiguous float64 array": [
            lambda th, s: forward_batch(th, F),
            lambda th, s: loss_and_grad_arrays(th, F, y),
            lambda th, s: forward_batch(th, X[::-1]),
        ],
        "y must be a C-contiguous float64 array": [
            lambda th, s: loss_and_grad_arrays(th, X, y[::-1]),
        ],
        "grad must be a C-contiguous float64 array": [
            lambda th, s: adam_step(th, s, grad[::-1], 1e-3),
        ],
        "u must be a C-contiguous float64 array": [
            lambda th, s: train_epoch(th, s, u[::-1], eps, 7.0, SCHED, 8, 1e-3),
        ],
    }
    for match, calls in refused.items():
        for call in calls:
            theta, s = random_theta(1), AdamState.zeros()
            with pytest.raises(ValueError, match=f"^{match}$"):
                call(theta, s)
            assert theta.tobytes() == random_theta(1).tobytes()
            assert s.step_count == 0 and not s.m.any() and not s.v.any()


# each ISA at -O3, and -march=native, against the baseline build at -O2
@pytest.mark.parametrize("name", [*ISAS, "native"])
def test_flags_do_not_move_the_bits(build, name):
    extra = ("-march=native",) if name == "native" else isa_or_skip(name)
    base = build(kernel.FLAGS)
    variant = build((*kernel.FLAGS, *extra, "-O3"))
    assert base.__file__ != variant.__file__
    thetas = []
    for k in (base, variant):
        theta, m, v = random_theta(6), np.zeros(N_PARAMS), np.zeros(N_PARAMS)
        for t in range(1, 301):
            X, y = inputs(t, 64)
            grad = np.empty(N_PARAMS)
            k.loss_and_grad(theta, X, y, grad)
            k.adam(theta, m, v, grad, 1e-3, t)
        # and whole epochs, rows built in the kernel
        for epoch in range(3):
            u, eps = epoch_draws(NoiseSpec("gaussian"), 1000, g=seed_stream(6, epoch))
            X = np.empty((1000, 2))
            k.rows(u, eps, 7.0, SCHED.sqrt_alpha_bar, SCHED.sqrt_one_minus_alpha_bar, X)
            k.train_epoch(theta, m, v, 300 + 16 * epoch, X, eps, 64, 1e-3)
        thetas.append(theta)
    assert thetas[0].tobytes() == thetas[1].tobytes()
    # the forward pass at a row count that leaves a partial block at any vector width
    X, _ = inputs(6, 2001)
    outs = [np.empty(2001), np.empty(2001)]
    base.forward(thetas[0], X, outs[0])
    variant.forward(thetas[0], X, outs[1])
    assert outs[0].tobytes() == outs[1].tobytes()


@pytest.mark.parametrize("name", ISAS)
def test_the_kernel_compiles_without_warnings(tmp_path, name):
    # -Wextra is left out: it warns on the unused ``self`` of every entry
    k = kernel.load(tmp_path, (*kernel.FLAGS, *isa_or_skip(name), "-Wall", "-Werror"))
    out = np.empty(1)
    k.forward(np.ones(N_PARAMS), np.array([[1.0, 0.5]]), out)
    assert out[0] == 81.0


class NumpyNoise:
    """The numpy transforms that the kernel's noise entry replaced, on a
    stream's uniforms, with their own Box-Muller pair cache."""

    def __init__(self, g):
        self.g, self.cache = g, None

    def gaussians(self, n):
        out, start = np.empty(n), 0
        if self.cache is not None and n > 0:
            out[0], self.cache, start = self.cache, None, 1
        m = n - start
        if m > 0:
            k = (m + 1) // 2
            u = self.g.uniforms(2 * k)
            r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
            theta = 2.0 * np.pi * u[1::2]
            z = np.empty(2 * k)
            z[0::2] = r * np.cos(theta)
            z[1::2] = r * np.sin(theta)
            out[start:] = z[:m]
            if m % 2 == 1:
                self.cache = float(z[m])
        return out

    def sample_block(self, spec, n):
        if spec.family == "gaussian":
            return self.gaussians(n)
        if spec.family == "uniform":
            return (2.0 * self.g.uniforms(n) - 1.0) * float(np.sqrt(3.0))
        if spec.family == "arcsine":
            b = np.sin(float(np.pi / 2.0) * self.g.uniforms(n)) ** 2
            return (b - 0.5) * float(np.sqrt(8.0))
        narrow = self.g.uniforms(n) < spec.mix_prob
        z = self.gaussians(n)
        z = np.where(narrow, z, z * np.sqrt(spec.big_variance))
        if spec.normalize:
            z = z / np.sqrt(spec.mix_prob + (1.0 - spec.mix_prob) * spec.big_variance)
        return z


NOISE_SPECS = [NoiseSpec("gaussian"), NoiseSpec("uniform"), NoiseSpec("arcsine"),
               NoiseSpec("mixture", mix_prob=0.5),
               NoiseSpec("mixture", mix_prob=0.9, big_variance=7.3, normalize=True)]


# the builds that test_flags_do_not_move_the_bits compares: each ISA, and -march=native -O3
@pytest.mark.parametrize("name", [*ISAS, "native"])
@pytest.mark.parametrize("spec", NOISE_SPECS, ids=lambda spec: spec.label())
def test_noise_has_the_numpy_formulas_bytes(isa_builds, build, monkeypatch, name, spec):
    if name == "native":
        k = build((*kernel.FLAGS, "-march=native", "-O3"))
    else:
        isa_or_skip(name)
        k = isa_builds[name]
    # sin and cos stay libm's scalar functions, which numpy's equal: no libmvec
    assert b"_ZGV" not in Path(k.__file__).read_bytes()
    monkeypatch.setattr(kernel, "default", lambda: k)
    g, ref = seed_stream(9, 4), NumpyNoise(seed_stream(9, 4))
    # odd lengths leave a pair's second value in the cache for the next block
    for n in (1, 2, 7, 0, 1000, 999, 3, 2000, 1):
        got, want = noise.sample_block(spec, n, g), ref.sample_block(spec, n)
        assert got.shape == (n,) and got.tobytes() == want.tobytes(), n
    assert g.uniforms(5).tobytes() == ref.g.uniforms(5).tobytes()


def test_noise_checks_its_family_and_lengths():
    k, u = kernel.default(), seed_stream(0, 4).uniforms(6)
    with pytest.raises(ValueError, match="^unknown noise family laplace$"):
        k.noise("laplace", u, u, np.empty(6))
    with pytest.raises(ValueError, match="^w must hold one value per pair of uniforms in u$"):
        k.noise("gaussian", u[:5], u[:2], np.empty(5))
    with pytest.raises(ValueError, match="^w must hold one value per pair of uniforms in u$"):
        k.noise("gaussian", u, u, np.empty(6))
    out = np.empty(6)
    k.noise("gaussian", u, np.log1p(-u[0::2]), out)
    assert out.tobytes() == NumpyNoise(seed_stream(0, 4)).gaussians(6).tobytes()


def test_the_default_build_is_for_the_widest_isa_the_host_runs(tmp_path, monkeypatch):
    umath = multiarray_umath()
    host = umath.__cpu_features__
    isa = ("-mavx512f",) if host.get("AVX512F") else ("-mavx2",) if host.get("AVX2") else ()
    assert kernel.host_flags() == (*kernel.FLAGS, *isa)
    assert kernel.load(tmp_path).provenance["flags"] == [*kernel.FLAGS, *isa]
    kernel.load(tmp_path, (*kernel.FLAGS, *isa))
    assert len(list(tmp_path.iterdir())) == 1  # the default build is that one
    for features, want in [({"AVX512F": True, "AVX2": True}, ("-mavx512f",)),
                           ({"AVX512F": False, "AVX2": True}, ("-mavx2",)),
                           ({"AVX2": False}, ()), ({}, ())]:
        monkeypatch.setattr(umath, "__cpu_features__", features)
        assert kernel.host_flags.__wrapped__() == (*kernel.FLAGS, *want)


def test_another_compiler_gets_a_build_of_its_own(tmp_path, monkeypatch):
    kernel.load(tmp_path)
    monkeypatch.setattr(kernel, "compiler_version", lambda cc: "gcc (other build) 99.1")
    assert kernel.load(tmp_path).provenance["compiler"] == "gcc (other build) 99.1"
    assert len(list(tmp_path.iterdir())) == 2


def source_copy(tmp_path, monkeypatch, path_type=Path):
    """``kernel.SOURCE`` pointed at a copy of the source in ``tmp_path``, as
    ``path_type``; the copy and the original bytes."""
    source, original = path_type(tmp_path / "_kernel.c"), kernel.SOURCE.read_bytes()
    source.write_bytes(original)
    monkeypatch.setattr(kernel, "SOURCE", source)
    return source, original


def test_a_source_edited_during_a_build_cannot_poison_the_cache(tmp_path, monkeypatch):
    source, original = source_copy(tmp_path, monkeypatch)
    edited = original.replace(b"out[r] = s[r] + th[OFF_B2];", b"out[r] = s[r] + th[OFF_B2] + 1.0;")
    assert edited != original
    run = subprocess.run

    def edit_then_run(cmd, **kwargs):  # the source changes just before gcc starts
        if "-shared" in cmd:
            source.write_bytes(edited)
        return run(cmd, **kwargs)

    monkeypatch.setattr(kernel.subprocess, "run", edit_then_run)
    kernel.load(tmp_path / "cache")
    source.write_bytes(original)
    out = np.empty(1)
    kernel.load(tmp_path / "cache").forward(np.ones(N_PARAMS), np.array([[1.0, 0.5]]), out)
    assert out[0] == 81.0  # the restored source's value; the edit would give 82.0


def test_load_reads_the_source_once_and_the_manifest_names_those_bytes(tmp_path, monkeypatch):
    reads = []

    class CountingPath(type(Path())):
        def open(self, *args, **kwargs):
            reads.append(self)
            return super().open(*args, **kwargs)

    source, original = source_copy(tmp_path, monkeypatch, CountingPath)
    run = subprocess.run

    def run_counting_gcc(cmd, **kwargs):  # gcc reads the source if its command names it
        reads.extend(arg for arg in cmd if arg == str(source))
        return run(cmd, **kwargs)

    monkeypatch.setattr(kernel.subprocess, "run", run_counting_gcc)
    cache = tmp_path / "cache"
    for state in ("cold", "warm"):
        reads.clear()
        k = kernel.load(cache)
        assert len(reads) == 1, state
        assert len(list(cache.iterdir())) == 1
    source.write_bytes(original + b"\n/* edited after the load */\n")
    monkeypatch.setattr(kernel, "default", lambda: k)
    path = cli.write_manifest(ExperimentConfig(), tmp_path / "out", 1.0, 1, "single")
    assert json.loads(path.read_text())["kernel"] == {
        "source_sha256": hashlib.sha256(original).hexdigest(),
        "compiler": kernel.compiler_version(kernel.CC),
        "flags": list(kernel.host_flags()),
    }


def test_two_processes_building_a_cold_cache_at_once(tmp_path):
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(SRC)!r})
        import numpy as np
        from ddpm1d import kernel
        k = kernel.load({str(tmp_path)!r})
        out = np.empty(1)
        k.forward(np.ones(129), np.array([[1.0, 0.5]]), out)
        print(out[0])
    """)
    procs = [subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True)
             for _ in range(2)]
    outs = [p.communicate(timeout=120)[0] for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    assert outs[0] == outs[1] == "81.0\n"  # 32 units of (1 + 0.5 + 1), plus 1
    assert len(list(tmp_path.iterdir())) == 1  # one published build, no temporary left


@pytest.mark.parametrize("mode", [0o777, 0o770, "file"], ids=["0o777", "0o770", "file"])
def test_a_cache_others_may_write_is_refused(tmp_path, mode):
    # a build planted there by another user would be loaded and run
    cache = tmp_path / "cache"
    if mode == "file":
        cache.write_bytes(b"")
    else:
        cache.mkdir()
        cache.chmod(mode)
    with pytest.raises(OSError, match=rf"^cannot build the network kernel: {re.escape(str(cache))}"
                                      " is not a private, writable directory$"):
        kernel.load(cache)
    assert [p.name for p in tmp_path.iterdir()] == ["cache"]
    assert cache.is_file() or list(cache.iterdir()) == []


def test_a_private_cache_is_loaded(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    out = np.empty(1)
    kernel.load(cache).forward(np.ones(N_PARAMS), np.array([[1.0, 0.5]]), out)
    assert out[0] == 81.0 and len(list(cache.iterdir())) == 1


@pytest.mark.parametrize("missing", ["compiler", "headers"])
def test_missing_build_tool_exits_2_with_one_line(tmp_path, monkeypatch, capsys, missing):
    monkeypatch.setattr(kernel, "default", lambda: kernel.load(tmp_path / "cold"))
    if missing == "compiler":
        monkeypatch.setattr(kernel, "CC", "no-such-cc")
    else:
        paths = kernel.sysconfig.get_paths() | {"include": str(tmp_path)}
        monkeypatch.setattr(kernel.sysconfig, "get_paths", lambda: paths)
    code = cli.main(["run", "--trials", "1", "--workers", "1", "--quiet",
                     "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("runtime error: cannot build")
    assert ("'no-such-cc' not found" if missing == "compiler" else "Python.h") in lines[0]
    assert list((tmp_path / "cold").iterdir()) == []
    assert not (tmp_path / "out").exists()


SCHED = build_linear(1e-4, 0.02, 500)
FAMILIES = [NoiseSpec("gaussian"), NoiseSpec("uniform"), NoiseSpec("arcsine"),
            NoiseSpec("mixture", mix_prob=0.5)]


def epoch_draws(spec, n, g):
    """One epoch's timestep uniforms and noise block, in train_trial's stream layout."""
    u = g.uniforms(n)
    return u, noise.sample_block(spec, n, g)


def numpy_steps(u, T):
    """The timesteps t = floor(u * T) + 1, uniform on 1..T, as numpy computes them."""
    return np.floor(u * T).astype(np.int64) + 1


def alpha_bar_of(sched):
    """The schedule's alpha_bar, by build_linear's own operations on its beta."""
    return np.cumprod(1.0 - sched.beta)


def reference_epoch(theta, s, u, eps, x0, alpha_bar, batch_size, lr):
    """The epoch as train_trial ran it before train_epoch: the steps and the rows
    by the q_sample formula in numpy, then a loss_and_grad_arrays and an
    adam_step per minibatch. Returns (theta, state, summed squared error, index
    of the first minibatch with a non-finite loss or None)."""
    ts = numpy_steps(u, len(alpha_bar))
    ab = alpha_bar[ts - 1]
    X = np.column_stack([np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps, ts / len(alpha_bar)])
    sq = 0.0
    for k, lo in enumerate(range(0, len(ts), batch_size)):
        yb = eps[lo : lo + batch_size]
        loss, grad = loss_and_grad_arrays(theta, X[lo : lo + batch_size], yb)
        if not math.isfinite(loss):
            return theta, s, sq, k
        sq += loss * len(yb)
        theta, s = adam_step(theta, s, grad, lr)
    return theta, s, sq, None


def assert_same_state(theta, s, ref_theta, ref_s):
    assert theta.tobytes() == ref_theta.tobytes()
    assert s.m.tobytes() == ref_s.m.tobytes() and s.v.tobytes() == ref_s.v.tobytes()
    assert s.step_count == ref_s.step_count


# 1000/64 leaves a remainder batch of 40; 5/1 is all remainder-free single rows
@pytest.mark.parametrize("n, batch_size", [(1000, 64), (64, 64), (5, 1)])
@pytest.mark.parametrize("spec", FAMILIES, ids=lambda spec: spec.label())
def test_train_epoch_is_bit_equal_to_the_reference_loop(spec, n, batch_size):
    theta, s = random_theta(7), AdamState.zeros()
    ref_theta, ref_s = theta.copy(), AdamState.zeros()
    g = seed_stream(3, 1)
    for _ in range(4):
        u, eps = epoch_draws(spec, n, g)
        sq, bad = train_epoch(theta, s, u, eps, 7.0, SCHED, batch_size, 1e-3)
        ref_theta, ref_s, ref_sq, ref_bad = reference_epoch(
            ref_theta, ref_s, u, eps, 7.0, alpha_bar_of(SCHED), batch_size, 1e-3)
        assert bad is None and ref_bad is None
        assert np.float64(sq).tobytes() == np.float64(ref_sq).tobytes()
        assert_same_state(theta, s, ref_theta, ref_s)
    assert s.step_count == 4 * -(-n // batch_size)


@pytest.mark.parametrize("x0", [7.0, -3.5, 0.0])
def test_kernel_rows_have_the_q_sample_formula_bytes(x0):
    u, eps = epoch_draws(NoiseSpec("mixture", mix_prob=0.5), 1000, seed_stream(8, 1))
    u[:3] = (0.0, np.nextafter(1.0, 0.0), 0.499)  # both ends of the schedule, and t = 250
    eps[3:6] = (0.0, -0.0, 1e-300)
    out = np.empty((1000, 2))
    kernel.default().rows(u, eps, x0, SCHED.sqrt_alpha_bar, SCHED.sqrt_one_minus_alpha_bar, out)
    ts = numpy_steps(u, 500)
    assert ts[:3].tolist() == [1, 500, 250]
    ab = alpha_bar_of(SCHED)[ts - 1]
    assert out[:, 0].tobytes() == (np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps).tobytes()
    assert out[:, 1].tobytes() == (ts / 500).tobytes()


def reference_train(cfg, trial):
    """train_trial as it was before train_epoch, on reference_epoch."""
    theta, s = init_params(init_stream(cfg, trial)), AdamState.zeros()
    g, alpha_bar = train_stream(cfg, trial), alpha_bar_of(cfg.schedule())
    loss = math.nan
    for epoch in range(1, cfg.epochs + 1):
        u, eps = epoch_draws(cfg.noise, cfg.samples_per_epoch, g)
        theta, s, sq, bad = reference_epoch(theta, s, u, eps, cfg.x0, alpha_bar,
                                            cfg.batch_size, cfg.learning_rate)
        if bad is not None:
            return None, math.nan, f"training epoch {epoch}, minibatch {bad}"
        loss = sq / cfg.samples_per_epoch
    return theta, loss, None


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda spec: spec.label())
def test_train_trial_is_bit_equal_to_the_reference_loop(spec):
    cfg = ExperimentConfig(epochs=5, samples_per_epoch=200, batch_size=64, steps=50, noise=spec)
    theta, loss, divergence = train_trial(cfg, 1)
    ref_theta, ref_loss, ref_divergence = reference_train(cfg, 1)
    assert theta.tobytes() == ref_theta.tobytes() and loss == ref_loss
    assert divergence is None and ref_divergence is None


def test_divergence_is_found_in_the_same_epoch_and_minibatch():
    cfg = ExperimentConfig(epochs=5, samples_per_epoch=256, batch_size=32, steps=50,
                           learning_rate=1e300)
    theta, loss, divergence = train_trial(cfg, 0)
    assert theta is None and math.isnan(loss)
    assert divergence == reference_train(cfg, 0)[2]
    epoch, minibatch = map(int, re.fullmatch(r"training epoch (\d+), minibatch (\d+)",
                                             divergence).groups())
    # inside the epoch: the state stops before the minibatch whose loss is not finite
    theta, s = init_params(init_stream(cfg, 0)), AdamState.zeros()
    g, alpha_bar = train_stream(cfg, 0), alpha_bar_of(cfg.schedule())
    for _ in range(epoch):
        u, eps = epoch_draws(cfg.noise, 256, g)
        ref_theta, ref_s, ref_sq, ref_bad = reference_epoch(
            theta.copy(), replace(s, m=s.m.copy(), v=s.v.copy()), u, eps, 7.0, alpha_bar, 32,
            1e300)
        sq, bad = train_epoch(theta, s, u, eps, 7.0, cfg.schedule(), 32, 1e300)
        assert bad == ref_bad and np.float64(sq).tobytes() == np.float64(ref_sq).tobytes()
        assert_same_state(theta, s, ref_theta, ref_s)
    assert bad is not None and bad == minibatch


def counting(calls, name, fn):
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)
    return wrapper


def count_minibatch_calls(monkeypatch):
    """Rebinds mlp's loss_and_grad_arrays and adam_step to counting wrappers, so
    that train_epoch takes its per-minibatch path; returns the counts."""
    calls = {"loss": 0, "adam": 0}
    monkeypatch.setattr(mlp, "loss_and_grad_arrays", counting(calls, "loss", loss_and_grad_arrays))
    monkeypatch.setattr(mlp, "adam_step", counting(calls, "adam", adam_step))
    return calls


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda spec: spec.label())
def test_rebound_loss_and_adam_see_every_minibatch_and_move_no_bit(spec, monkeypatch):
    cfg = ExperimentConfig(epochs=5, samples_per_epoch=200, batch_size=64, steps=50, noise=spec)
    diverging = replace(cfg, learning_rate=1e300)
    fused_theta, fused_loss, _ = train_trial(cfg, 1)
    fused_params, _, fused_divergence = train_trial(diverging, 0)
    assert fused_params is None and fused_divergence is not None
    calls = count_minibatch_calls(monkeypatch)
    theta, loss, _ = train_trial(cfg, 1)
    assert theta.tobytes() == fused_theta.tobytes() and loss == fused_loss
    # 200 rows in batches of 64: three full minibatches and a remainder of 8
    assert calls == {"loss": 5 * 4, "adam": 5 * 4}
    params, _, divergence = train_trial(diverging, 0)
    assert params is None and divergence == fused_divergence


# u = 0, the last double below 1, and the doubles on and beside each k / T
@pytest.mark.parametrize("T", [1, 2, 3, 7, 500, 512, 1000])
def test_kernel_steps_are_numpys_floor_of_u_times_T(T):
    k = np.arange(T + 1) / T
    u = np.concatenate([np.linspace(0.0, 1.0, 20_001), k, np.nextafter(k, 0.0),
                        np.nextafter(k, 1.0), [0.0, np.nextafter(1.0, 0.0)]])
    u = u[(u >= 0.0) & (u < 1.0)]
    alpha_bar = np.linspace(0.999, 0.001, T)
    eps = seed_stream(T, 2).gaussians(len(u))
    out = np.empty((len(u), 2))
    kernel.default().rows(u, eps, 7.0, np.sqrt(alpha_bar), np.sqrt(1.0 - alpha_bar), out)
    ts = numpy_steps(u, T)
    assert ts.min() == 1 and ts.max() == T
    assert out[:, 1].tobytes() == (ts / T).tobytes()
    ab = alpha_bar[ts - 1]
    assert out[:, 0].tobytes() == (np.sqrt(ab) * 7.0 + np.sqrt(1.0 - ab) * eps).tobytes()


@pytest.mark.parametrize("path", ["fused", "rebound"])
@pytest.mark.parametrize("bad", [1.0, -1e-300, np.nan, np.inf, "empty-alpha_bar"])
def test_train_epoch_uniforms_outside_0_1_raise_value_error(bad, path, monkeypatch):
    k = kernel.default()
    calls = count_minibatch_calls(monkeypatch) if path == "rebound" else {}
    calls["epoch"] = 0  # the fused path's one kernel call for all its minibatches
    monkeypatch.setattr(kernel, "default", lambda: SimpleNamespace(
        rows=k.rows, noise=k.noise, train_epoch=counting(calls, "epoch", k.train_epoch)))
    theta, s = random_theta(0), AdamState.zeros()
    before = theta.copy()
    u, eps = epoch_draws(NoiseSpec("gaussian"), 100, seed_stream(0, 1))
    sched = SCHED
    if bad == "empty-alpha_bar":  # a schedule of no steps, which build_linear refuses to make
        sched = Schedule(0, *[np.empty(0)] * 5)
        match = "^the schedule's roots must be nonempty and equally long$"
    else:
        u[37] = bad  # one bad uniform anywhere in the block
        match = rf"^uniform {re.escape(repr(float(bad)))} \(index 37\) outside \[0, 1\)$"
    with pytest.raises(ValueError, match=match):
        train_epoch(theta, s, u, eps, 7.0, sched, 64, 1e-3)
    assert theta.tobytes() == before.tobytes() and s.step_count == 0
    assert not s.m.any() and not s.v.any()
    assert not any(calls.values()), calls


def read_only(a):
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("which", ["theta", "m", "v"])
@pytest.mark.parametrize("make", [
    read_only,
    lambda a: np.repeat(a, 2)[::2],  # a strided view: not C-contiguous
    lambda a: a[:128].copy(),
    lambda a: a.astype(np.float32),
], ids=["read-only", "non-contiguous", "wrong-length", "float32"])
def test_in_place_arguments_are_never_copied(which, make):
    theta, s = random_theta(1), AdamState.zeros()
    args = {"theta": theta, "m": s.m, "v": s.v}
    args[which] = make(args[which].copy())
    before = {k: a.copy() for k, a in args.items()}
    u, eps = epoch_draws(NoiseSpec("gaussian"), 64, seed_stream(1, 1))
    state = AdamState(args["m"], args["v"])
    with pytest.raises((ValueError, BufferError)):
        train_epoch(args["theta"], state, u, eps, 7.0, SCHED, 64, 1e-3)
    for k, a in args.items():
        assert a.tobytes() == before[k].tobytes()
    assert state.step_count == 0


def test_train_epoch_checks_its_other_arguments():
    theta, s = random_theta(2), AdamState.zeros()
    u, eps = epoch_draws(NoiseSpec("gaussian"), 64, seed_stream(2, 1))
    with pytest.raises(ValueError, match=r"outside \[0, 1\)"):  # steps in place of uniforms
        train_epoch(theta, s, numpy_steps(u, 500).astype(np.float64), eps, 7.0, SCHED, 64, 1e-3)
    with pytest.raises(ValueError, match="one value per uniform"):
        train_epoch(theta, s, u, eps[:63], 7.0, SCHED, 64, 1e-3)
    with pytest.raises(ValueError, match="batch_size"):
        train_epoch(theta, s, u, eps, 7.0, SCHED, 0, 1e-3)
    with pytest.raises(ValueError, match="learning rate must be > 0, got nan"):
        train_epoch(theta, s, u, eps, 7.0, SCHED, 64, float("nan"))
    assert s.step_count == 0 and not s.m.any()


def valid_call(entry):
    """The arguments of a valid call of the kernel entry ``entry``, by name, in
    order."""
    X, y = inputs(3, 16)
    u, eps = epoch_draws(NoiseSpec("gaussian"), 16, seed_stream(3, 1))
    u[0] = np.nextafter(1.0, 0.0)  # the last step
    theta = random_theta(3)
    m, v, grad = (np.full(N_PARAMS, c) for c in (0.1, 0.2, 0.3))
    return {
        "forward": {"theta": theta, "X": X, "out": np.zeros(16)},
        "loss_and_grad": {"theta": theta, "X": X, "y": y, "grad": np.zeros(N_PARAMS)},
        "adam": {"theta": theta, "m": m, "v": v, "grad": grad, "lr": 1e-3, "t": 1},
        "rows": {"u": u, "eps": eps, "x0": 7.0, "sqrt_alpha_bar": SCHED.sqrt_alpha_bar.copy(),
                 "sqrt_one_minus_alpha_bar": SCHED.sqrt_one_minus_alpha_bar.copy(),
                 "out": np.zeros((16, 2))},
        "train_epoch": {"theta": theta, "m": m, "v": v, "step": 0, "X": X, "y": y,
                        "batch_size": 8, "lr": 1e-3},
        "noise": {"family": "mixture", "u": u, "w": eps, "out": np.zeros(16), "mix_prob": 0.5,
                  "big_variance": 100.0, "normalize": True},
    }[entry]


WRITTEN = {"forward": {"out"}, "loss_and_grad": {"grad"}, "adam": {"theta", "m", "v"},
           "rows": {"out"}, "train_epoch": {"theta", "m", "v"}, "noise": {"out"}}
FAULTS = {
    "kind": lambda a: a.astype(np.float32),
    "length": lambda a: a[:-1],  # one value, or one row, fewer; a root unequal to the other
    "read-only": read_only,
    "empty": lambda a: a[:0],  # only the schedule's roots
}
ROOTS = ("sqrt_alpha_bar", "sqrt_one_minus_alpha_bar")


def expected_error(entry, name, fault):
    """The exception and message a call with ``name`` made bad by ``fault``
    raises; None for a shorter alpha_bar, a schedule of fewer steps."""
    if name == "alpha_bar":  # both roots: the first is checked first
        return (None, None) if fault == "length" else expected_error(entry, ROOTS[0], fault)
    if fault == "kind":
        return ValueError, rf"^{name} must be a float64 array$"
    if fault == "read-only":
        return (ValueError, BufferError), "read-only"
    if name in ROOTS:
        return ValueError, "^the schedule's roots must be nonempty and equally long$"
    if name in ("theta", "m", "v", "grad"):
        return ValueError, rf"^{name} must hold 129 values$"
    if entry == "noise":
        return ValueError, f"^{'w' if name == 'w' else 'out'} must hold one value per uniform in u$"
    if name in ("u", "eps"):
        return ValueError, "^eps must hold one value per uniform in u$"
    if entry == "rows":
        return ValueError, "^out must hold two values per uniform in u$"
    return ValueError, r"^X must be an \(n, 2\) array with one row per target$"


@pytest.mark.parametrize("entry, name, fault", [
    (entry, name, fault)
    for entry in WRITTEN
    for name, a in valid_call(entry).items() if isinstance(a, np.ndarray)
    for fault in FAULTS
    if (fault != "read-only" or name in WRITTEN[entry]) and (fault != "empty" or name in ROOTS)
] + [("rows", "alpha_bar", fault) for fault in ("kind", "length")])
def test_every_array_argument_is_checked_before_use_and_released(entry, name, fault):
    call = valid_call(entry)
    # "alpha_bar" is the whole schedule: the fault reaches both of its roots
    for k in ROOTS if name == "alpha_bar" else (name,):
        call[k] = FAULTS[fault](call[k].copy())
    arrays = {k: a for k, a in call.items() if isinstance(a, np.ndarray)}
    # a buffer that an error path borrows and does not release holds a reference
    before = {k: (a.tobytes(), sys.getrefcount(a)) for k, a in arrays.items()}
    error, match = expected_error(entry, name, fault)
    if error is None:
        getattr(kernel.default(), entry)(*call.values())
        T = len(call["sqrt_alpha_bar"])
        assert call["out"][:, 1].tobytes() == (numpy_steps(call["u"], T) / T).tobytes()
        assert call["out"][0, 1] == 1.0
        before["out"] = (call["out"].tobytes(), before["out"][1])
    else:
        with pytest.raises(error, match=match):
            getattr(kernel.default(), entry)(*call.values())
    assert {k: (a.tobytes(), sys.getrefcount(a)) for k, a in arrays.items()} == before
