"""The compiled network kernel against a numpy reference, its input checks,
its build cache and its independence from optimization flags.

The numpy functions below are the network's arithmetic as it stood before the
kernel: matrix products for the forward pass and the gradient, numpy's
elementwise Adam. They sum in another order than the kernel, so the forward
pass, the loss and the gradient agree within 1e-12 relative; the Adam update is
elementwise in both and agrees bit for bit. ``ordered_forward`` sums in the
kernel's own order, unit by unit for every row, and the forward pass agrees
with it bit for bit, up to the sign and payload of a NaN.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from ddpm1d import cli, kernel, mlp
from ddpm1d.mlp import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
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
)
from ddpm1d.prng import seed_stream

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


def numpy_adam(theta, s, grads, lr):
    t = s.step_count + 1
    m = ADAM_BETA1 * s.m + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * s.v + (1.0 - ADAM_BETA2) * (grads * grads)
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
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


def test_adam_is_bit_equal_to_numpy():
    theta, s = random_theta(4), AdamState.zeros()
    ref_theta, ref_s = theta.copy(), AdamState.zeros()
    for k in range(20):
        X, y = inputs(k, 64)
        _, grad = loss_and_grad_arrays(theta, X, y)
        theta, s = adam_step(theta, s, grad, 1e-3)
        ref_theta, ref_s = numpy_adam(ref_theta, ref_s, grad, 1e-3)
        assert theta.tobytes() == ref_theta.tobytes()
        assert s.m.tobytes() == ref_s.m.tobytes() and s.v.tobytes() == ref_s.v.tobytes()
        assert s.step_count == ref_s.step_count


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
        mlp._kernel().forward(theta.astype(np.float32), X, out)
    with pytest.raises(ValueError):  # not C-contiguous
        mlp._kernel().forward(theta, np.asfortranarray(X), out)


def test_wrappers_accept_what_numpy_accepted():
    # a list theta, a Fortran-ordered X and an integer y are converted, as the
    # numpy bodies' arithmetic converted them
    theta = random_theta(1)
    X, y = inputs(1, 16)
    yi = np.round(y * 3).astype(np.int64)
    loss, grad = loss_and_grad_arrays(theta, X, yi.astype(np.float64))
    loss_f, grad_f = loss_and_grad_arrays(list(theta), np.asfortranarray(X), yi)
    assert loss_f == loss and grad_f.tobytes() == grad.tobytes()
    rev = X[::-1]  # a negative-stride view
    assert forward_batch(list(theta), rev).tobytes() == forward_batch(theta, rev.copy()).tobytes()
    new, s = adam_step(list(theta), AdamState([0.0] * N_PARAMS, [0.0] * N_PARAMS), list(grad), 1e-3)
    ref, ref_s = adam_step(theta, AdamState.zeros(), grad, 1e-3)
    assert new.tobytes() == ref.tobytes() and s.m.tobytes() == ref_s.m.tobytes()


def test_flags_do_not_move_the_bits(tmp_path):
    base = kernel.load(tmp_path / "base")
    native = kernel.load(tmp_path / "native", (*kernel.FLAGS, "-O3", "-march=native"))
    assert base.__file__ != native.__file__
    thetas = []
    for k in (base, native):
        theta, m, v = random_theta(6), np.zeros(N_PARAMS), np.zeros(N_PARAMS)
        for t in range(1, 301):
            X, y = inputs(t, 64)
            grad = np.empty(N_PARAMS)
            k.loss_and_grad(theta, X, y, grad)
            out = [np.empty(N_PARAMS) for _ in range(3)]
            k.adam(theta, m, v, grad, 1e-3, ADAM_BETA1, ADAM_BETA2, ADAM_EPS,
                   1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t, *out)
            theta, m, v = out
        thetas.append(theta)
    assert thetas[0].tobytes() == thetas[1].tobytes()
    # the forward pass at a row count that leaves a partial block at any vector width
    X, _ = inputs(6, 2001)
    outs = [np.empty(2001), np.empty(2001)]
    base.forward(thetas[0], X, outs[0])
    native.forward(thetas[0], X, outs[1])
    assert outs[0].tobytes() == outs[1].tobytes()


def test_another_compiler_gets_a_build_of_its_own(tmp_path, monkeypatch):
    kernel.load(tmp_path)
    monkeypatch.setattr(kernel, "compiler_version", lambda cc: "gcc (other build) 99.1")
    kernel.load(tmp_path)
    assert len(list(tmp_path.iterdir())) == 2
    assert kernel.provenance()["compiler"] == "gcc (other build) 99.1"


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


@pytest.mark.parametrize("missing", ["compiler", "headers"])
def test_missing_build_tool_exits_2_with_one_line(tmp_path, monkeypatch, capsys, missing):
    monkeypatch.setattr(mlp, "_kernel", lambda: kernel.load(tmp_path / "cold"))
    if missing == "compiler":
        monkeypatch.setattr(kernel, "CC", "no-such-cc")
    else:
        paths = kernel.sysconfig.get_paths() | {"include": str(tmp_path)}
        monkeypatch.setattr(kernel.sysconfig, "get_paths", lambda: paths)
    code = cli.main(["run", "--trials", "1", "--gens-per-trial", "1", "--workers", "1",
                     "--quiet", "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("runtime error: cannot build")
    assert ("'no-such-cc' not found" if missing == "compiler" else "Python.h") in lines[0]
    assert list((tmp_path / "cold").iterdir()) == []
    assert not (tmp_path / "out").exists()
