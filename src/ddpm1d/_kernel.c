/* The network arithmetic behind ddpm1d.mlp: the forward pass, the mean squared
 * error with its exact gradient, and the Adam update, for the 2-32-1 ReLU
 * network on the flat 129-value theta [W1 rows (32 x 2), b1 (32), W2 (32), b2].
 *
 * Every sum runs in one fixed order, written out below, and the module is
 * compiled with -ffp-contract=off, so that no multiply-add is fused: the bits
 * then do not depend on the optimization level or on the CPU's FMA support.
 * The forward pass takes the rows in blocks of BLOCK, with the rows as the
 * innermost loop: each row keeps its own accumulator and sums its units in
 * order j = 0..31, so the compiler can compute a block's rows side by side in
 * vector lanes without moving a row's bits. A last, partial block is padded
 * with zero rows. Arrays arrive as C-contiguous float64 buffers, whose lengths
 * are checked before anything is read or written.
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

/* Borrow obj's buffer as C-contiguous float64 values; *count gets their number. */
static int get_f64(PyObject *obj, Py_buffer *view, int writable, const char *name,
                   Py_ssize_t *count)
{
    int flags = PyBUF_ND | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    if (view->itemsize != 8 || view->format == NULL || strcmp(view->format, "d") != 0) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_ValueError, "%s must be a float64 array", name);
        return -1;
    }
    *count = view->len / 8;
    return 0;
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

/* Loss: the squared errors summed row by row, over n. Gradient: each row adds
 * its terms in turn, b2 first and then unit by unit, for the units with z > 0
 * (the ReLU subgradient at 0 is 0). The rows' forward passes run a block at a
 * time, ahead of their gradient terms, which they do not depend on. */
static PyObject *loss_and_grad(PyObject *self, PyObject *args)
{
    PyObject *theta, *X, *y, *grad;
    Py_buffer v[4];
    Py_ssize_t n, n_grad;
    double z[HIDDEN][BLOCK], pred[BLOCK];
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
    const double *th = v[0].buf, *x = v[1].buf, *yy = v[2].buf;
    double *g = v[3].buf;
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
    release(v, 4);
    return PyFloat_FromDouble(sq / (double)n);
}

/* One bias-corrected Adam step into fresh arrays, elementwise in numpy's order;
 * c1 = 1 - beta1^t and c2 = 1 - beta2^t come from the caller. */
static PyObject *adam(PyObject *self, PyObject *args)
{
    PyObject *o[7];
    const char *names[7] = {"theta", "m", "v", "grad", "theta_out", "m_out", "v_out"};
    double lr, b1, b2, eps, c1, c2;
    Py_buffer v[7];
    Py_ssize_t count;
    if (!PyArg_ParseTuple(args, "OOOOddddddOOO:adam", &o[0], &o[1], &o[2], &o[3], &lr, &b1,
                          &b2, &eps, &c1, &c2, &o[4], &o[5], &o[6]))
        return NULL;
    for (int k = 0; k < 7; k++) {
        if (get_f64(o[k], &v[k], k >= 4, names[k], &count) < 0) {
            release(v, k);
            return NULL;
        }
        if (count != N_PARAMS) {
            release(v, k + 1);
            PyErr_Format(PyExc_ValueError, "%s must hold 129 values", names[k]);
            return NULL;
        }
    }
    const double *th = v[0].buf, *m = v[1].buf, *s = v[2].buf, *g = v[3].buf;
    double *th2 = v[4].buf, *m2 = v[5].buf, *s2 = v[6].buf;
    for (int i = 0; i < N_PARAMS; i++) {
        const double mi = b1 * m[i] + (1.0 - b1) * g[i];
        const double si = b2 * s[i] + (1.0 - b2) * (g[i] * g[i]);
        m2[i] = mi;
        s2[i] = si;
        th2[i] = th[i] - lr * (mi / c1) / (sqrt(si / c2) + eps);
    }
    release(v, 7);
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"forward", forward, METH_VARARGS,
     "forward(theta, X, out): the prediction for each row of X into out."},
    {"loss_and_grad", loss_and_grad, METH_VARARGS,
     "loss_and_grad(theta, X, y, grad) -> loss: the mean squared error; its gradient into grad."},
    {"adam", adam, METH_VARARGS,
     "adam(theta, m, v, grad, lr, beta1, beta2, eps, c1, c2, theta_out, m_out, v_out)."},
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
