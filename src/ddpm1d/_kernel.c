/* The network arithmetic behind ddpm1d.mlp: the forward pass, the mean squared
 * error with its exact gradient, and the Adam update, in place on theta and its
 * moments, for the 2-32-1 ReLU network on the flat 129-value theta [W1 rows
 * (32 x 2), b1 (32), W2 (32), b2]; rows, which builds an epoch's (x_t, t / T)
 * training rows; and train_epoch, which runs every minibatch's loss, gradient
 * and Adam step over those rows in place, in one call.
 *
 * Every sum runs in one fixed order, written out below, and the module is
 * compiled with -ffp-contract=off, so that no multiply-add is fused: the bits
 * then do not depend on the optimization level or on the CPU's FMA support.
 * The forward pass takes the rows in blocks of BLOCK, with the rows as the
 * innermost loop: each row keeps its own accumulator and sums its units in
 * order j = 0..31, so the compiler can compute a block's rows side by side in
 * vector lanes without moving a row's bits. A last, partial block is padded
 * with zero rows. The entries loss_and_grad, adam and train_epoch share one
 * loss-and-gradient body and one Adam body. Each entry lists its array
 * arguments in one table of arg descriptors, and borrow checks them all, as
 * C-contiguous float64 (or, for the steps of rows, int64) buffers of the right
 * length, before anything is read or written.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

#define N_IN 2
#define HIDDEN 32
#define N_PARAMS (HIDDEN * N_IN + HIDDEN + HIDDEN + 1)
#define OFF_B1 (HIDDEN * N_IN)
#define OFF_W2 (OFF_B1 + HIDDEN)
#define OFF_B2 (OFF_W2 + HIDDEN)
#define BLOCK 8

/* One array argument: its name, its kind ('d': float64, 'q': int64), whether it
 * is written, and the number of values it must hold (0: any); then the object
 * and, once borrowed, its buffer. */
typedef struct {
    const char *name;
    char kind;
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

/* Borrow a[0..k-1]'s buffers, each C-contiguous 8-byte values of its kind,
 * writable if it is written and holding its count; on any failure, release
 * those already borrowed. */
static int borrow(arg *a, int k)
{
    for (int i = 0; i < k; i++) {
        const int flags = PyBUF_ND | PyBUF_FORMAT | (a[i].writable ? PyBUF_WRITABLE : 0);
        if (PyObject_GetBuffer(a[i].obj, &a[i].view, flags) < 0) {
            release(a, i);
            return -1;
        }
        const char kind = a[i].kind;
        const char *f = a[i].view.format;
        if (a[i].view.itemsize != 8 || f == NULL || f[0] == '\0' || f[1] != '\0' ||
            !(f[0] == kind || (kind == 'q' && f[0] == 'l')))
            PyErr_Format(PyExc_ValueError, "%s must be a%s array", a[i].name,
                         kind == 'd' ? " float64" : "n int64");
        else if (a[i].want != 0 && COUNT(a[i]) != a[i].want)
            PyErr_Format(PyExc_ValueError, "%s must hold %zd values", a[i].name, a[i].want);
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

/* The predictions of rows 0..m-1 of X (m <= BLOCK) into out[0..m-1]; z[j][r]
 * gets row r's pre-activation of unit j. The ReLU passes NaN on, as numpy's
 * maximum does. */
static void forward_block(const double *th, const double *X, Py_ssize_t m,
                          double z[HIDDEN][BLOCK], double *out)
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
            const double zj = (x[r] * w0 + t[r] * w1) + b;
            z[j][r] = zj;
            s[r] += (zj <= 0.0 ? 0.0 : zj) * w2;
        }
    }
    for (Py_ssize_t r = 0; r < m; r++)
        out[r] = s[r] + th[OFF_B2];
}

static PyObject *forward(PyObject *self, PyObject *args)
{
    arg a[] = {{"theta", 'd', 0, N_PARAMS}, {"X", 'd'}, {"out", 'd', 1}};
    if (!PyArg_ParseTuple(args, "OOO:forward", &a[0].obj, &a[1].obj, &a[2].obj) ||
        borrow(a, 3) < 0)
        return NULL;
    const Py_ssize_t n = COUNT(a[2]);
    PyObject *result = NULL;
    if (check_X(&a[1], n) == 0) {
        const double *th = a[0].view.buf, *x = a[1].view.buf;
        double *o = a[2].view.buf, z[HIDDEN][BLOCK];
        for (Py_ssize_t i = 0; i < n; i += BLOCK)
            forward_block(th, x + N_IN * i, n - i < BLOCK ? n - i : BLOCK, z, o + i);
        result = Py_NewRef(Py_None);
    }
    release(a, 3);
    return result;
}

/* Loss: the squared errors summed row by row, over n; returned. Gradient: each
 * row adds its terms in turn, b2 first and then unit by unit, for the units
 * with z > 0 (the ReLU subgradient at 0 is 0), into g. The rows' forward passes
 * run a block at a time, ahead of their gradient terms, which they do not
 * depend on. */
static double mse_grad(const double *th, const double *x, const double *yy, Py_ssize_t n,
                       double *g)
{
    double z[HIDDEN][BLOCK], pred[BLOCK];
    memset(g, 0, N_PARAMS * sizeof(double));
    const double scale = 2.0 / (double)n;
    double sq = 0.0;
    for (Py_ssize_t i0 = 0; i0 < n; i0 += BLOCK) {
        const Py_ssize_t m = n - i0 < BLOCK ? n - i0 : BLOCK;
        forward_block(th, x + N_IN * i0, m, z, pred);
        for (Py_ssize_t r = 0; r < m; r++) {
            const Py_ssize_t i = i0 + r;
            const double xi = x[N_IN * i], ti = x[N_IN * i + 1];
            const double e = pred[r] - yy[i];
            const double d = scale * e;
            sq += e * e;
            g[OFF_B2] += d;
            for (int j = 0; j < HIDDEN; j++) {
                if (!(z[j][r] > 0.0))
                    continue;
                const double dz = d * th[OFF_W2 + j];
                g[OFF_W2 + j] += d * z[j][r];
                g[N_IN * j] += dz * xi;
                g[N_IN * j + 1] += dz * ti;
                g[OFF_B1 + j] += dz;
            }
        }
    }
    return sq / (double)n;
}

static PyObject *loss_and_grad(PyObject *self, PyObject *args)
{
    arg a[] = {{"theta", 'd', 0, N_PARAMS}, {"X", 'd'}, {"y", 'd'}, {"grad", 'd', 1, N_PARAMS}};
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

/* The Adam hyperparameters, in mlp's order. */
typedef struct {
    double lr, b1, b2, eps;
} adam_params;

static int check_lr(double lr)
{
    if (lr > 0.0)
        return 0;
    PyObject *value = PyFloat_FromDouble(lr);
    if (value != NULL)
        PyErr_Format(PyExc_ValueError, "learning rate must be > 0, got %R", value);
    Py_XDECREF(value);
    return -1;
}

/* The t-th bias-corrected Adam step, in place on th, m and s, elementwise in
 * numpy's order. The corrections 1 - beta^t come from pow, the function that
 * Python's float ** int calls. */
static void adam_body(double *th, double *m, double *s, const double *g, const adam_params *p,
                      long long t)
{
    const double c1 = 1.0 - pow(p->b1, (double)t), c2 = 1.0 - pow(p->b2, (double)t);
    for (int i = 0; i < N_PARAMS; i++) {
        m[i] = p->b1 * m[i] + (1.0 - p->b1) * g[i];
        s[i] = p->b2 * s[i] + (1.0 - p->b2) * (g[i] * g[i]);
        th[i] = th[i] - p->lr * (m[i] / c1) / (sqrt(s[i] / c2) + p->eps);
    }
}

static PyObject *adam(PyObject *self, PyObject *args)
{
    arg a[] = {{"theta", 'd', 1, N_PARAMS}, {"m", 'd', 1, N_PARAMS}, {"v", 'd', 1, N_PARAMS},
               {"grad", 'd', 0, N_PARAMS}};
    adam_params p;
    long long t;
    if (!PyArg_ParseTuple(args, "OOOOddddL:adam", &a[0].obj, &a[1].obj, &a[2].obj, &a[3].obj,
                          &p.lr, &p.b1, &p.b2, &p.eps, &t) ||
        check_lr(p.lr) < 0 || borrow(a, 4) < 0)
        return NULL;
    adam_body(a[0].view.buf, a[1].view.buf, a[2].view.buf, a[3].view.buf, &p, t);
    release(a, 4);
    Py_RETURN_NONE;
}

/* The training rows (x_t, t / T) into out, one per step in ts, with noise eps:
 * row i is (sqrt(ab) * x0 + sqrt(1 - ab) * eps[i], t / T), where t = ts[i],
 * ab = alpha_bar[t - 1] and T is alpha_bar's length; numpy's operations in
 * numpy's order. Lengths other than one eps value and one row per step raise
 * ValueError before out is written, and a step outside 1..T stops it with
 * IndexError. */
static PyObject *rows(PyObject *self, PyObject *args)
{
    arg a[] = {{"ts", 'q'}, {"eps", 'd'}, {"alpha_bar", 'd'}, {"out", 'd', 1}};
    double x0;
    if (!PyArg_ParseTuple(args, "OOdOO:rows", &a[0].obj, &a[1].obj, &x0, &a[2].obj, &a[3].obj) ||
        borrow(a, 4) < 0)
        return NULL;
    const long long *ts = a[0].view.buf;
    const double *e = a[1].view.buf, *ab = a[2].view.buf;
    double *X = a[3].view.buf;
    const Py_ssize_t n = COUNT(a[0]), T = COUNT(a[2]);
    Py_ssize_t i = -1;  /* the rows written; -1 if a length is wrong */
    if (COUNT(a[1]) != n)
        PyErr_SetString(PyExc_ValueError, "eps must hold one value per step in ts");
    else if (COUNT(a[3]) != N_IN * n)
        PyErr_SetString(PyExc_ValueError, "out must hold two values per step in ts");
    else
        for (i = 0; i < n && ts[i] >= 1 && ts[i] <= T; i++) {
            const double c = ab[ts[i] - 1];
            X[N_IN * i] = sqrt(c) * x0 + sqrt(1.0 - c) * e[i];
            X[N_IN * i + 1] = (double)ts[i] / (double)T;
        }
    if (i >= 0 && i < n)
        PyErr_Format(PyExc_IndexError, "step %lld (index %zd) outside 1..%zd", ts[i], i, T);
    release(a, 4);
    return i == n ? Py_NewRef(Py_None) : NULL;
}

/* One training epoch, in place on theta, m and v, on the rows X with targets y:
 * for each run of batch_size rows (the last one possibly short), mse_grad and
 * Adam step step + 1. Returns (the losses times their row counts, summed in
 * order; the new step; None), or, at the first minibatch whose loss is not
 * finite, its index in place of None: its step is not taken. Nothing is
 * written before every argument has been checked. */
static PyObject *train_epoch(PyObject *self, PyObject *args)
{
    arg a[] = {{"theta", 'd', 1, N_PARAMS}, {"m", 'd', 1, N_PARAMS}, {"v", 'd', 1, N_PARAMS},
               {"X", 'd'}, {"y", 'd'}};
    adam_params p;
    long long step;
    Py_ssize_t batch;
    if (!PyArg_ParseTuple(args, "OOOLOOndddd:train_epoch", &a[0].obj, &a[1].obj, &a[2].obj,
                          &step, &a[3].obj, &a[4].obj, &batch, &p.lr, &p.b1, &p.b2, &p.eps) ||
        check_lr(p.lr) < 0)
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
            adam_body(th, m, s, g, &p, ++step);
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
     "adam(theta, m, v, grad, lr, beta1, beta2, eps, t): Adam step t, in place on theta, m"
     " and v."},
    {"rows", rows, METH_VARARGS,
     "rows(ts, eps, x0, alpha_bar, out): the training rows (x_t, t / T) into out."},
    {"train_epoch", train_epoch, METH_VARARGS,
     "train_epoch(theta, m, v, step, X, y, batch_size, lr, beta1, beta2, adam_eps) -> (sum of"
     " squared errors, step, None or the diverged minibatch): the epoch's Adam steps on X."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "Network kernel of ddpm1d.mlp.",
    .m_size = 0,
    .m_methods = methods,
};

/* Multi-phase initialization: loading the module leaves sys.modules alone, and
 * builds at two paths can be loaded side by side. */
PyMODINIT_FUNC PyInit__kernel(void)
{
    return PyModuleDef_Init(&kernel_module);
}
