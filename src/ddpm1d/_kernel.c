/* The network arithmetic behind ddpm1d.mlp, for the 2-32-1 ReLU network on the
 * flat 129-value theta [W1 rows (32 x 2), b1 (32), W2 (32), b2]: the forward
 * pass, the mean squared error with its exact gradient, and the Adam update with
 * fixed BETA1, BETA2 and ADAM_EPS, in place on theta and its moments; rows, an
 * epoch's (x_t, t / T) rows from its uniforms and the caller's schedule roots;
 * and train_epoch, every minibatch's loss, gradient and Adam step, in one call.
 *
 * Every sum runs in one fixed order, written out below, and the module is
 * compiled with -ffp-contract=off, so that no multiply-add is fused: the bits
 * then do not depend on the optimization level or on the CPU's FMA support.
 * The forward pass takes the rows in blocks of BLOCK, with the rows as the
 * innermost loop: each row keeps its own accumulator and sums its units in
 * order j = 0..31, so the compiler can compute a block's rows side by side in
 * vector lanes without moving a row's bits. A last, partial block is padded
 * with zero rows. The gradient turns this around: its lanes are hidden units,
 * VW to a GCC vector (8 under AVX-512, 4 under AVX2, else 2), and each of its
 * sums adds the rows in order, so its bits do not depend on VW either. The
 * loader builds for the widest of these ISAs that the host runs.
 *
 * The entries loss_and_grad, adam and train_epoch share one loss-and-gradient
 * body and one Adam body. Adam runs its first 128 values in vector lanes and
 * the last one as a scalar tail; division and sqrt round the same in a lane as
 * in a scalar, and the module is compiled with -fno-math-errno, so that sqrt
 * needs no errno branch. A first moment below DBL_MIN in magnitude is stored
 * as +0: a dead unit's moment would otherwise decay into the subnormals, stick
 * there and slow every later step. Each entry lists its array arguments in one
 * table of arg descriptors, and borrow checks them all, as C-contiguous float64
 * buffers of the right length, before anything is read or written.
 *
 * noise maps uniforms to each family's noise, in ddpm1d.noise's block layouts
 * and by numpy's operations in numpy's order. sin and cos are libm's scalar
 * functions, which numpy's float64 sin and cos equal (GCC joins a Box-Muller
 * pair's two into one call of libm's sincos, which has their bits); no libmvec
 * vector variant is used. The Box-Muller radius takes numpy's log1p from its
 * caller, since numpy's vector log1p and libm's differ in the last bit.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <float.h>
#include <math.h>
#include <string.h>

#define N_IN 2
#define HIDDEN 32
#define N_PARAMS (HIDDEN * N_IN + HIDDEN + HIDDEN + 1)
#define OFF_B1 (HIDDEN * N_IN)
#define OFF_W2 (OFF_B1 + HIDDEN)
#define OFF_B2 (OFF_W2 + HIDDEN)
#define BLOCK 8
/* the gradient's lanes: hidden units per vector, as wide as the build's ISA */
#if defined(__AVX512F__)
#define VW 8
#elif defined(__AVX2__)
#define VW 4
#else
#define VW 2
#endif
#define NV (HIDDEN / VW)
typedef double vec __attribute__((vector_size(VW * sizeof(double))));
typedef long long lanes __attribute__((vector_size(VW * sizeof(double))));
#define BETA1 0.9
#define BETA2 0.999
#define ADAM_EPS 1e-8

/* One float64 array argument: its name, whether it is written, and the number
 * of values it must hold (0: any); then the object and, once borrowed, its
 * buffer. */
typedef struct {
    const char *name;
    int writable;
    Py_ssize_t want;
    PyObject *obj;
    Py_buffer view;
} arg;

#define COUNT(a) ((a).view.len / 8)

static void release(arg *a, int k)
{
    while (k-- > 0)
        PyBuffer_Release(&a[k].view);
}

/* Borrow a[0..k-1]'s buffers, each C-contiguous float64 values, writable if it
 * is written and holding its count; on any failure, release those already
 * borrowed. Every error names its argument. */
static int borrow(arg *a, int k)
{
    for (int i = 0; i < k; i++) {
        if (PyObject_GetBuffer(a[i].obj, &a[i].view, PyBUF_ND | PyBUF_FORMAT) < 0) {
            PyErr_Format(PyExc_ValueError, "%s must be a C-contiguous float64 array", a[i].name);
            release(a, i);
            return -1;
        }
        const char *f = a[i].view.format;
        if (a[i].view.itemsize != 8 || f == NULL || strcmp(f, "d") != 0)
            PyErr_Format(PyExc_ValueError, "%s must be a float64 array", a[i].name);
        else if (a[i].want != 0 && COUNT(a[i]) != a[i].want)
            PyErr_Format(PyExc_ValueError, "%s must hold %zd values", a[i].name, a[i].want);
        else if (a[i].writable && a[i].view.readonly)
            PyErr_Format(PyExc_ValueError, "%s is read-only", a[i].name);
        else
            continue;
        release(a, i + 1);
        return -1;
    }
    return 0;
}

/* Whether X is (n, 2), one row per target or output; else ValueError. */
static int check_X(const arg *X, Py_ssize_t n)
{
    if (X->view.ndim == 2 && X->view.shape[1] == N_IN && COUNT(*X) == N_IN * n)
        return 0;
    PyErr_SetString(PyExc_ValueError, "X must be an (n, 2) array with one row per target");
    return -1;
}

/* The predictions of rows 0..m-1 of X (m <= BLOCK) into out[0..m-1]. The
 * ReLU passes NaN on, as numpy's maximum does. */
static void forward_block(const double *th, const double *X, Py_ssize_t m, double *out)
{
    double x[BLOCK], t[BLOCK], s[BLOCK];
    for (int r = 0; r < BLOCK; r++) {
        x[r] = r < m ? X[N_IN * r] : 0.0;
        t[r] = r < m ? X[N_IN * r + 1] : 0.0;
        s[r] = 0.0;
    }
    for (int j = 0; j < HIDDEN; j++) {
        const double w0 = th[N_IN * j], w1 = th[N_IN * j + 1], b = th[OFF_B1 + j];
        const double w2 = th[OFF_W2 + j];
        for (int r = 0; r < BLOCK; r++) {
            const double z = (x[r] * w0 + t[r] * w1) + b;
            s[r] += (z <= 0.0 ? 0.0 : z) * w2;
        }
    }
    for (Py_ssize_t r = 0; r < m; r++)
        out[r] = s[r] + th[OFF_B2];
}

static PyObject *forward(PyObject *self, PyObject *args)
{
    arg a[] = {{"theta", 0, N_PARAMS}, {"X"}, {"out", 1}};
    if (!PyArg_ParseTuple(args, "OOO:forward", &a[0].obj, &a[1].obj, &a[2].obj) ||
        borrow(a, 3) < 0)
        return NULL;
    const Py_ssize_t n = COUNT(a[2]);
    PyObject *result = NULL;
    if (check_X(&a[1], n) == 0) {
        const double *th = a[0].view.buf, *x = a[1].view.buf;
        double *o = a[2].view.buf;
        for (Py_ssize_t i = 0; i < n; i += BLOCK)
            forward_block(th, x + N_IN * i, n - i < BLOCK ? n - i : BLOCK, o + i);
        result = Py_NewRef(Py_None);
    }
    release(a, 3);
    return result;
}

/* Loss: the squared errors summed row by row, over n; returned. Gradient: each
 * of the 129 sums adds its rows' terms in row order from +0, into g at the end.
 * b2's term is d, the row's scaled error; unit j's terms are d * z_j for W2,
 * and dz = d * W2_j times x, t and 1 for W1 and b1, in the rows where z_j > 0
 * (the ReLU subgradient at 0 is 0). The predictions run a block of rows at a
 * time through forward_block; the gradient takes a unit per vector lane, VW at
 * a time, over the block's rows in order. It computes z_j as forward_block does
 * and masks an off unit's terms to +0, which leaves every sum's bits as
 * skipping the unit would: a sum that starts at +0 never reaches -0, and adding
 * +0 leaves any other value as it is. A NaN z_j is off, as it was skipped. */
static double mse_grad(const double *th, const double *x, const double *yy, Py_ssize_t n,
                       double *g)
{
    double pred[BLOCK], d[BLOCK];
    vec w0[NV], w1[NV], b1[NV], w2[NV], gx[NV], gt[NV], gb1[NV], gw2[NV];
    for (int j = 0; j < HIDDEN; j++) {
        w0[j / VW][j % VW] = th[N_IN * j];
        w1[j / VW][j % VW] = th[N_IN * j + 1];
    }
    memcpy(b1, th + OFF_B1, sizeof b1);
    memcpy(w2, th + OFF_W2, sizeof w2);
    for (int k = 0; k < NV; k++)
        gx[k] = gt[k] = gb1[k] = gw2[k] = (vec){0};
    const double scale = 2.0 / (double)n;
    double sq = 0.0, gb2 = 0.0;
    for (Py_ssize_t i0 = 0; i0 < n; i0 += BLOCK) {
        const Py_ssize_t m = n - i0 < BLOCK ? n - i0 : BLOCK;
        const double *xb = x + N_IN * i0;
        forward_block(th, xb, m, pred);
        for (Py_ssize_t r = 0; r < m; r++) {
            const double e = pred[r] - yy[i0 + r];
            d[r] = scale * e;
            sq += e * e;
            gb2 += d[r];
        }
        for (int k = 0; k < NV; k++)
            for (Py_ssize_t r = 0; r < m; r++) {
                const double xr = xb[N_IN * r], tr = xb[N_IN * r + 1];
                const vec z = (xr * w0[k] + tr * w1[k]) + b1[k];
                const lanes on = (lanes)(z > 0.0);
                const vec dz = d[r] * w2[k];
                gw2[k] += (vec)((lanes)(d[r] * z) & on);
                gx[k] += (vec)((lanes)(dz * xr) & on);
                gt[k] += (vec)((lanes)(dz * tr) & on);
                gb1[k] += (vec)((lanes)dz & on);
            }
    }
    for (int j = 0; j < HIDDEN; j++) {
        g[N_IN * j] = gx[j / VW][j % VW];
        g[N_IN * j + 1] = gt[j / VW][j % VW];
    }
    memcpy(g + OFF_B1, gb1, sizeof gb1);
    memcpy(g + OFF_W2, gw2, sizeof gw2);
    g[OFF_B2] = gb2;
    return sq / (double)n;
}

static PyObject *loss_and_grad(PyObject *self, PyObject *args)
{
    arg a[] = {{"theta", 0, N_PARAMS}, {"X"}, {"y"}, {"grad", 1, N_PARAMS}};
    if (!PyArg_ParseTuple(args, "OOOO:loss_and_grad", &a[0].obj, &a[1].obj, &a[2].obj,
                          &a[3].obj) ||
        borrow(a, 4) < 0)
        return NULL;
    const Py_ssize_t n = COUNT(a[2]);
    PyObject *result = NULL;
    const int x_ok = check_X(&a[1], n) == 0;
    if (x_ok && n == 0)
        PyErr_SetString(PyExc_ValueError, "the batch is empty");
    else if (x_ok)
        result = PyFloat_FromDouble(
            mse_grad(a[0].view.buf, a[1].view.buf, a[2].view.buf, n, a[3].view.buf));
    release(a, 4);
    return result;
}

/* Raises ValueError with fmt, which takes v as %R and then, if it asks, i. */
static int value_error(const char *fmt, double v, Py_ssize_t i)
{
    PyObject *value = PyFloat_FromDouble(v);
    if (value != NULL)
        PyErr_Format(PyExc_ValueError, fmt, value, i);
    Py_XDECREF(value);
    return -1;
}

static int check_lr(double lr)
{
    return lr > 0.0 ? 0 : value_error("learning rate must be > 0, got %R", lr, 0);
}

/* Adam's update of value i, elementwise in numpy's order, except that a first
 * moment below DBL_MIN in magnitude is stored as +0. Where numpy's moment is
 * subnormal, its update of th is below 2^-1000 and leaves any th of magnitude
 * 2^-900 or more as it is, so th keeps numpy's bits there. */
static inline void adam_value(double *restrict th, double *restrict m, double *restrict s,
                              const double *restrict g, double lr, double c1, double c2, int i)
{
    const double mi = BETA1 * m[i] + (1.0 - BETA1) * g[i];
    m[i] = fabs(mi) < DBL_MIN ? 0.0 : mi;
    s[i] = BETA2 * s[i] + (1.0 - BETA2) * (g[i] * g[i]);
    th[i] = th[i] - lr * (m[i] / c1) / (sqrt(s[i] / c2) + ADAM_EPS);
}

/* The t-th bias-corrected Adam step, in place on th, m and s: values 0..127 in
 * vector lanes, whole vectors at any width, then value 128. The corrections
 * 1 - beta^t come from pow, the function that Python's float ** int calls. */
static void adam_body(double *restrict th, double *restrict m, double *restrict s,
                      const double *restrict g, double lr, long long t)
{
    const double c1 = 1.0 - pow(BETA1, (double)t), c2 = 1.0 - pow(BETA2, (double)t);
    for (int i = 0; i < N_PARAMS - 1; i++)
        adam_value(th, m, s, g, lr, c1, c2, i);
    adam_value(th, m, s, g, lr, c1, c2, N_PARAMS - 1);
}

static PyObject *adam(PyObject *self, PyObject *args)
{
    arg a[] = {{"theta", 1, N_PARAMS}, {"m", 1, N_PARAMS}, {"v", 1, N_PARAMS},
               {"grad", 0, N_PARAMS}};
    double lr;
    long long t;
    if (!PyArg_ParseTuple(args, "OOOOdL:adam", &a[0].obj, &a[1].obj, &a[2].obj, &a[3].obj, &lr,
                          &t) ||
        check_lr(lr) < 0 || borrow(a, 4) < 0)
        return NULL;
    adam_body(a[0].view.buf, a[1].view.buf, a[2].view.buf, a[3].view.buf, lr, t);
    release(a, 4);
    Py_RETURN_NONE;
}

/* The training rows (x_t, t / T) into out, one per timestep uniform in u, with
 * noise eps: row i is (c[t - 1] * x0 + d[t - 1] * eps[i], t / T), where
 * t = floor(u[i] * T) + 1, by numpy's operations in numpy's order; c and d are
 * the caller's sqrt(alpha_bar) and sqrt(1 - alpha_bar), and T their length. Empty
 * or unequal roots, or a length other than one eps value and one row per uniform,
 * raise ValueError before out is written, and a u outside [0, 1), NaN included,
 * stops it: for u in [0, 1), u * T rounds to below T, so t is in 1..T. */
static PyObject *rows(PyObject *self, PyObject *args)
{
    arg a[] = {{"u"}, {"eps"}, {"sqrt_alpha_bar"}, {"sqrt_one_minus_alpha_bar"}, {"out", 1}};
    double x0;
    if (!PyArg_ParseTuple(args, "OOdOOO:rows", &a[0].obj, &a[1].obj, &x0, &a[2].obj, &a[3].obj,
                          &a[4].obj) ||
        borrow(a, 5) < 0)
        return NULL;
    const double *u = a[0].view.buf, *e = a[1].view.buf, *c = a[2].view.buf, *d = a[3].view.buf;
    double *X = a[4].view.buf;
    const Py_ssize_t n = COUNT(a[0]), T = COUNT(a[2]);
    Py_ssize_t i = -1;  /* the rows written; -1 if an argument is wrong */
    if (COUNT(a[1]) != n)
        PyErr_SetString(PyExc_ValueError, "eps must hold one value per uniform in u");
    else if (COUNT(a[4]) != N_IN * n)
        PyErr_SetString(PyExc_ValueError, "out must hold two values per uniform in u");
    else if (T == 0 || COUNT(a[3]) != T)
        PyErr_SetString(PyExc_ValueError, "the schedule's roots must be nonempty and equally long");
    else
        for (i = 0; i < n && u[i] >= 0.0 && u[i] < 1.0; i++) {
            const Py_ssize_t t = (Py_ssize_t)(u[i] * (double)T) + 1;
            X[N_IN * i] = c[t - 1] * x0 + d[t - 1] * e[i];
            X[N_IN * i + 1] = (double)t / (double)T;
        }
    if (i >= 0 && i < n)
        value_error("uniform %R (index %zd) outside [0, 1)", u[i], i);
    release(a, 5);
    return i == n ? Py_NewRef(Py_None) : NULL;
}

/* One block of the noise family named family from the uniforms u, into out,
 * one value per uniform. w holds log1p(-u[2i]) for each Box-Muller pair
 * (u[2i], u[2i + 1]) of a gaussian block, the block's gaussians for a
 * mixture, and one value per uniform that is not read for uniform and arcsine.
 * Each family is numpy's formula in numpy's order:
 *   gaussian  r = sqrt(-2 * w[i]), a = 2 pi u[2i + 1]; r cos(a), then r sin(a)
 *   uniform   (2 u - 1) sqrt(3)
 *   arcsine   (sin(pi / 2 u)^2 - 0.5) sqrt(8)
 *   mixture   w where u < mix_prob, else w sqrt(big_variance); then, if
 *             normalize, divided by sqrt(mix_prob + (1 - mix_prob) big_variance)
 * Wrong lengths or an unknown family raise ValueError before out is written. */
static PyObject *noise(PyObject *self, PyObject *args)
{
    enum { GAUSSIAN, UNIFORM, ARCSINE, MIXTURE, FAMILIES };
    static const char *const names[FAMILIES] = {"gaussian", "uniform", "arcsine", "mixture"};
    arg a[] = {{"u"}, {"w"}, {"out", 1}};
    const char *family;
    double p = 0.0, big = 1.0;
    int normalize = 0, f = 0;
    if (!PyArg_ParseTuple(args, "sOOO|ddp:noise", &family, &a[0].obj, &a[1].obj, &a[2].obj, &p,
                          &big, &normalize) ||
        borrow(a, 3) < 0)
        return NULL;
    while (f < FAMILIES && strcmp(family, names[f]) != 0)
        f++;
    const double *u = a[0].view.buf, *w = a[1].view.buf;
    double *out = a[2].view.buf;
    const Py_ssize_t n = COUNT(a[0]);
    if (f == FAMILIES)
        PyErr_Format(PyExc_ValueError, "unknown noise family %s", family);
    else if (COUNT(a[2]) != n)
        PyErr_SetString(PyExc_ValueError, "out must hold one value per uniform in u");
    else if (f == GAUSSIAN && (n % 2 != 0 || COUNT(a[1]) != n / 2))
        PyErr_SetString(PyExc_ValueError, "w must hold one value per pair of uniforms in u");
    else if (f != GAUSSIAN && COUNT(a[1]) != n)
        PyErr_SetString(PyExc_ValueError, "w must hold one value per uniform in u");
    else if (f == GAUSSIAN)
        for (Py_ssize_t i = 0; i < n / 2; i++) {
            const double r = sqrt(-2.0 * w[i]), angle = (2.0 * M_PI) * u[2 * i + 1];
            out[2 * i] = r * cos(angle);
            out[2 * i + 1] = r * sin(angle);
        }
    else if (f == UNIFORM)
        for (Py_ssize_t i = 0; i < n; i++)
            out[i] = (2.0 * u[i] - 1.0) * sqrt(3.0);
    else if (f == ARCSINE)
        for (Py_ssize_t i = 0; i < n; i++) {
            const double b = sin((M_PI / 2.0) * u[i]);
            out[i] = (b * b - 0.5) * sqrt(8.0);
        }
    else {
        const double wide = sqrt(big), norm = sqrt(p + (1.0 - p) * big);
        for (Py_ssize_t i = 0; i < n; i++) {
            const double z = u[i] < p ? w[i] : w[i] * wide;
            out[i] = normalize ? z / norm : z;
        }
    }
    release(a, 3);
    return PyErr_Occurred() ? NULL : Py_NewRef(Py_None);
}

/* One training epoch, in place on theta, m and v, on the rows X with targets y:
 * for each run of batch_size rows (the last one possibly short), mse_grad and
 * Adam step step + 1. Returns (the losses times their row counts, summed in
 * order; the new step; None), or, at the first minibatch whose loss is not
 * finite, its index in place of None: its step is not taken. Nothing is
 * written before every argument has been checked. */
static PyObject *train_epoch(PyObject *self, PyObject *args)
{
    arg a[] = {{"theta", 1, N_PARAMS}, {"m", 1, N_PARAMS}, {"v", 1, N_PARAMS}, {"X"}, {"y"}};
    double lr;
    long long step;
    Py_ssize_t batch;
    if (!PyArg_ParseTuple(args, "OOOLOOnd:train_epoch", &a[0].obj, &a[1].obj, &a[2].obj, &step,
                          &a[3].obj, &a[4].obj, &batch, &lr) ||
        check_lr(lr) < 0)
        return NULL;
    if (batch < 1)
        PyErr_SetString(PyExc_ValueError, "batch_size must be >= 1");
    if (batch < 1 || borrow(a, 5) < 0)
        return NULL;
    const Py_ssize_t n = COUNT(a[4]);
    PyObject *result = NULL;
    if (check_X(&a[3], n) == 0) {
        double *th = a[0].view.buf, *m = a[1].view.buf, *s = a[2].view.buf, g[N_PARAMS], sq = 0.0;
        const double *X = a[3].view.buf, *y = a[4].view.buf;
        Py_ssize_t k = 0, nb;
        int diverged = 0;
        for (Py_ssize_t lo = 0; lo < n; lo += nb, k++) {
            nb = n - lo < batch ? n - lo : batch;
            const double loss = mse_grad(th, X + N_IN * lo, y + lo, nb, g);
            if ((diverged = !isfinite(loss)))
                break;
            sq += loss * (double)nb;
            adam_body(th, m, s, g, lr, ++step);
        }
        result = diverged ? Py_BuildValue("(dLn)", sq, step, k)
                          : Py_BuildValue("(dLO)", sq, step, Py_None);
    }
    release(a, 5);
    return result;
}

static PyMethodDef methods[] = {
    {"forward", forward, METH_VARARGS,
     "forward(theta, X, out): the prediction for each row of X into out."},
    {"loss_and_grad", loss_and_grad, METH_VARARGS,
     "loss_and_grad(theta, X, y, grad) -> loss: the mean squared error; its gradient into grad."},
    {"adam", adam, METH_VARARGS,
     "adam(theta, m, v, grad, lr, t): Adam step t, in place on theta, m and v."},
    {"rows", rows, METH_VARARGS,
     "rows(u, eps, x0, sqrt_alpha_bar, sqrt_one_minus_alpha_bar, out): the training rows"
     " (x_t, t / T), t = floor(u * T) + 1, into out."},
    {"noise", noise, METH_VARARGS,
     "noise(family, u, w, out[, mix_prob, big_variance, normalize]): the family's noise block"
     " from the uniforms u (and w) into out."},
    {"train_epoch", train_epoch, METH_VARARGS,
     "train_epoch(theta, m, v, step, X, y, batch_size, lr) -> (sum of squared errors, step,"
     " None or the diverged minibatch): the epoch's Adam steps on X."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "Network and noise kernel of ddpm1d.mlp and ddpm1d.noise.",
    .m_size = 0,
    .m_methods = methods,
};

/* Multi-phase initialization: loading the module leaves sys.modules alone, and
 * builds at two paths can be loaded side by side. */
PyMODINIT_FUNC PyInit__kernel(void)
{
    return PyModuleDef_Init(&kernel_module);
}
