/* The network arithmetic behind ddpm1d.mlp: the forward pass, the mean squared
 * error with its exact gradient, and the Adam update, for the 2-32-1 ReLU
 * network on the flat 129-value theta [W1 rows (32 x 2), b1 (32), W2 (32), b2];
 * and train_epoch, which builds an epoch's (x_t, t / T) rows and runs every
 * minibatch's loss, gradient and Adam step in place, in one call.
 *
 * Every sum runs in one fixed order, written out below, and the module is
 * compiled with -ffp-contract=off, so that no multiply-add is fused: the bits
 * then do not depend on the optimization level or on the CPU's FMA support.
 * The forward pass takes the rows in blocks of BLOCK, with the rows as the
 * innermost loop: each row keeps its own accumulator and sums its units in
 * order j = 0..31, so the compiler can compute a block's rows side by side in
 * vector lanes without moving a row's bits. A last, partial block is padded
 * with zero rows. The entries loss_and_grad, adam and train_epoch share one
 * loss-and-gradient body and one Adam body. Arrays arrive as C-contiguous
 * float64 (or, for train_epoch's steps, int64) buffers, whose lengths are
 * checked before anything is read or written.
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

/* Borrow obj's buffer as C-contiguous 8-byte values, float64 for kind 'd' and
 * int64 for kind 'q'; *count gets their number. */
static int get_array(PyObject *obj, Py_buffer *view, int writable, const char *name, char kind,
                     Py_ssize_t *count)
{
    int flags = PyBUF_ND | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    const char *f = view->format;
    if (view->itemsize != 8 || f == NULL || f[0] == '\0' || f[1] != '\0' ||
        !(f[0] == kind || (kind == 'q' && f[0] == 'l'))) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_ValueError, "%s must be a%s array", name,
                     kind == 'd' ? " float64" : "n int64");
        return -1;
    }
    *count = view->len / 8;
    return 0;
}

static int get_f64(PyObject *obj, Py_buffer *view, int writable, const char *name,
                   Py_ssize_t *count)
{
    return get_array(obj, view, writable, name, 'd', count);
}

static void release(Py_buffer *views, int n)
{
    for (int i = 0; i < n; i++)
        PyBuffer_Release(&views[i]);
}

/* Borrow theta, X and the per-row array (y or out) into views[0..2]; check
 * that theta holds N_PARAMS values and that X is (n, 2), n being the per-row
 * array's length. */
static int get_network_args(PyObject *theta, PyObject *X, PyObject *rows, int rows_writable,
                            Py_buffer *views, Py_ssize_t *n)
{
    Py_ssize_t n_theta, n_x;
    const char *msg = NULL;
    if (get_f64(theta, &views[0], 0, "theta", &n_theta) < 0)
        return -1;
    if (get_f64(X, &views[1], 0, "X", &n_x) < 0) {
        release(views, 1);
        return -1;
    }
    if (get_f64(rows, &views[2], rows_writable, rows_writable ? "out" : "y", n) < 0) {
        release(views, 2);
        return -1;
    }
    if (n_theta != N_PARAMS)
        msg = "theta must hold 129 values";
    else if (views[1].ndim != 2 || views[1].shape[1] != N_IN || n_x != N_IN * *n)
        msg = "X must be an (n, 2) array with one row per target";
    if (msg != NULL) {
        release(views, 3);
        PyErr_SetString(PyExc_ValueError, msg);
        return -1;
    }
    return 0;
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
    PyObject *theta, *X, *out;
    Py_buffer v[3];
    Py_ssize_t n;
    double z[HIDDEN][BLOCK];
    if (!PyArg_ParseTuple(args, "OOO:forward", &theta, &X, &out))
        return NULL;
    if (get_network_args(theta, X, out, 1, v, &n) < 0)
        return NULL;
    const double *th = v[0].buf, *x = v[1].buf;
    double *o = v[2].buf;
    for (Py_ssize_t i = 0; i < n; i += BLOCK)
        forward_block(th, x + N_IN * i, n - i < BLOCK ? n - i : BLOCK, z, o + i);
    release(v, 3);
    Py_RETURN_NONE;
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
    PyObject *theta, *X, *y, *grad;
    Py_buffer v[4];
    Py_ssize_t n, n_grad;
    if (!PyArg_ParseTuple(args, "OOOO:loss_and_grad", &theta, &X, &y, &grad))
        return NULL;
    if (get_network_args(theta, X, y, 0, v, &n) < 0)
        return NULL;
    if (get_f64(grad, &v[3], 1, "grad", &n_grad) < 0) {
        release(v, 3);
        return NULL;
    }
    if (n_grad != N_PARAMS || n == 0) {
        release(v, 4);
        PyErr_SetString(PyExc_ValueError,
                        n == 0 ? "the batch is empty" : "grad must hold 129 values");
        return NULL;
    }
    const double loss = mse_grad(v[0].buf, v[1].buf, v[2].buf, n, v[3].buf);
    release(v, 4);
    return PyFloat_FromDouble(loss);
}

/* Borrow o[0..n-1], arrays of N_PARAMS values, into views; those from
 * first_writable on are written. */
static int get_params(PyObject **o, const char **names, int n, int first_writable,
                      Py_buffer *views)
{
    Py_ssize_t count;
    for (int k = 0; k < n; k++) {
        if (get_f64(o[k], &views[k], k >= first_writable, names[k], &count) < 0) {
            release(views, k);
            return -1;
        }
        if (count != N_PARAMS) {
            release(views, k + 1);
            PyErr_Format(PyExc_ValueError, "%s must hold 129 values", names[k]);
            return -1;
        }
    }
    return 0;
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

/* The t-th bias-corrected Adam step, elementwise in numpy's order. The
 * corrections 1 - beta^t come from pow, the function that Python's float ** int
 * calls. The outputs may be the inputs. */
static void adam_body(const double *th, const double *m, const double *s, const double *g,
                      const adam_params *p, long long t, double *th2, double *m2, double *s2)
{
    const double c1 = 1.0 - pow(p->b1, (double)t), c2 = 1.0 - pow(p->b2, (double)t);
    for (int i = 0; i < N_PARAMS; i++) {
        const double mi = p->b1 * m[i] + (1.0 - p->b1) * g[i];
        const double si = p->b2 * s[i] + (1.0 - p->b2) * (g[i] * g[i]);
        m2[i] = mi;
        s2[i] = si;
        th2[i] = th[i] - p->lr * (mi / c1) / (sqrt(si / c2) + p->eps);
    }
}

/* Adam step t into the three out arrays. */
static PyObject *adam(PyObject *self, PyObject *args)
{
    PyObject *o[7];
    const char *names[7] = {"theta", "m", "v", "grad", "theta_out", "m_out", "v_out"};
    adam_params p;
    long long t;
    Py_buffer v[7];
    if (!PyArg_ParseTuple(args, "OOOOddddLOOO:adam", &o[0], &o[1], &o[2], &o[3], &p.lr, &p.b1,
                          &p.b2, &p.eps, &t, &o[4], &o[5], &o[6]))
        return NULL;
    if (check_lr(p.lr) < 0)
        return NULL;
    if (get_params(o, names, 7, 4, v) < 0)
        return NULL;
    adam_body(v[0].buf, v[1].buf, v[2].buf, v[3].buf, &p, t, v[4].buf, v[5].buf, v[6].buf);
    release(v, 7);
    Py_RETURN_NONE;
}

/* Borrow ts (int64) and eps, one value per step, and alpha_bar into views[0..2];
 * *n gets the number of steps. */
static int get_row_args(PyObject *ts, PyObject *eps, PyObject *alpha_bar, Py_buffer *views,
                        Py_ssize_t *n)
{
    Py_ssize_t n_eps, T;
    if (get_array(ts, &views[0], 0, "ts", 'q', n) < 0)
        return -1;
    if (get_f64(eps, &views[1], 0, "eps", &n_eps) < 0) {
        release(views, 1);
        return -1;
    }
    if (get_f64(alpha_bar, &views[2], 0, "alpha_bar", &T) < 0) {
        release(views, 2);
        return -1;
    }
    if (n_eps != *n) {
        release(views, 3);
        PyErr_SetString(PyExc_ValueError, "eps must hold one value per step in ts");
        return -1;
    }
    return 0;
}

/* The training rows into X: row i is (sqrt(ab) * x0 + sqrt(1 - ab) * eps[i],
 * t / T), where t = ts[i], ab = alpha_bar[t - 1] and T is alpha_bar's length;
 * numpy's operations in numpy's order. A step outside 1..T stops it with
 * IndexError. */
static int build_rows(const Py_buffer *views, double x0, double *X)
{
    const long long *ts = views[0].buf;
    const double *e = views[1].buf, *ab = views[2].buf;
    const Py_ssize_t n = views[0].len / 8, T = views[2].len / 8;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (ts[i] < 1 || ts[i] > T) {
            PyErr_Format(PyExc_IndexError, "step %lld (index %zd) outside 1..%zd", ts[i], i, T);
            return -1;
        }
        const double a = ab[ts[i] - 1];
        X[N_IN * i] = sqrt(a) * x0 + sqrt(1.0 - a) * e[i];
        X[N_IN * i + 1] = (double)ts[i] / (double)T;
    }
    return 0;
}

static PyObject *rows(PyObject *self, PyObject *args)
{
    PyObject *ts, *eps, *alpha_bar, *out;
    double x0;
    Py_buffer v[4];
    Py_ssize_t n, n_out;
    if (!PyArg_ParseTuple(args, "OOdOO:rows", &ts, &eps, &x0, &alpha_bar, &out))
        return NULL;
    if (get_row_args(ts, eps, alpha_bar, v, &n) < 0)
        return NULL;
    if (get_f64(out, &v[3], 1, "out", &n_out) < 0) {
        release(v, 3);
        return NULL;
    }
    int rc = -1;
    if (n_out != N_IN * n)
        PyErr_SetString(PyExc_ValueError, "out must hold two values per step in ts");
    else
        rc = build_rows(v, x0, v[3].buf);
    release(v, 4);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* One training epoch, in place on theta, m and v: the rows, as build_rows makes
 * them, with targets eps; then, for each run of batch_size rows (the last one
 * possibly short), mse_grad and Adam step step + 1. Returns (the losses times
 * their row counts, summed in order; the new step; None), or, at the first
 * minibatch whose loss is not finite, its index in place of None: its step is
 * not taken. Nothing is written before every argument has been checked. */
static PyObject *train_epoch(PyObject *self, PyObject *args)
{
    PyObject *o[6];
    const char *names[3] = {"theta", "m", "v"};
    adam_params p;
    long long step;
    double x0;
    Py_ssize_t batch, n;
    Py_buffer v[6];
    if (!PyArg_ParseTuple(args, "OOOLOOdOndddd:train_epoch", &o[0], &o[1], &o[2], &step, &o[3],
                          &o[4], &x0, &o[5], &batch, &p.lr, &p.b1, &p.b2, &p.eps))
        return NULL;
    if (check_lr(p.lr) < 0)
        return NULL;
    if (batch < 1) {
        PyErr_SetString(PyExc_ValueError, "batch_size must be >= 1");
        return NULL;
    }
    if (get_params(o, names, 3, 0, v) < 0)
        return NULL;
    if (get_row_args(o[3], o[4], o[5], v + 3, &n) < 0) {
        release(v, 3);
        return NULL;
    }
    PyObject *result = NULL;
    double *X = PyMem_Malloc(N_IN * n * sizeof(double));
    if (X == NULL)
        PyErr_NoMemory();
    else if (build_rows(v + 3, x0, X) == 0) {
        double *th = v[0].buf, *m = v[1].buf, *s = v[2].buf, g[N_PARAMS], sq = 0.0;
        const double *e = v[4].buf;
        Py_ssize_t k = 0, nb;
        int diverged = 0;
        for (Py_ssize_t lo = 0; lo < n; lo += nb, k++) {
            nb = n - lo < batch ? n - lo : batch;
            const double loss = mse_grad(th, X + N_IN * lo, e + lo, nb, g);
            if ((diverged = !isfinite(loss)))
                break;
            sq += loss * (double)nb;
            adam_body(th, m, s, g, &p, ++step, th, m, s);
        }
        result = diverged ? Py_BuildValue("(dLn)", sq, step, k)
                          : Py_BuildValue("(dLO)", sq, step, Py_None);
    }
    PyMem_Free(X);
    release(v, 6);
    return result;
}

static PyMethodDef methods[] = {
    {"forward", forward, METH_VARARGS,
     "forward(theta, X, out): the prediction for each row of X into out."},
    {"loss_and_grad", loss_and_grad, METH_VARARGS,
     "loss_and_grad(theta, X, y, grad) -> loss: the mean squared error; its gradient into grad."},
    {"adam", adam, METH_VARARGS,
     "adam(theta, m, v, grad, lr, beta1, beta2, eps, t, theta_out, m_out, v_out)."},
    {"rows", rows, METH_VARARGS,
     "rows(ts, eps, x0, alpha_bar, out): the training rows (x_t, t / T) into out."},
    {"train_epoch", train_epoch, METH_VARARGS,
     "train_epoch(theta, m, v, step, ts, eps, x0, alpha_bar, batch_size, lr, beta1, beta2,"
     " adam_eps)"
     " -> (sum of squared errors, step, None or the diverged minibatch)."},
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
