/* Compiled inner loop of ppinterp.linalg.echelon_mod: row echelon form
 * over GF(p) of an int64 matrix, in place.
 *
 * Written by hand against the CPython C API and the buffer protocol; it
 * needs no numpy headers.  Entries are residues in [0, p) with p < 2**26, so
 * every product f * a stays below 2**52 and fits an int64.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>  /* also brings stdint.h and string.h */

#define MAX_PRIME (1LL << 26)

/* Inverse of a unit a mod p, by the extended Euclidean algorithm. */
static int64_t inv_mod(int64_t a, int64_t p)
{
    int64_t t = 0, newt = 1, r = p, newr = a, q, tmp;
    while (newr != 0) {
        q = r / newr;
        tmp = t - q * newt; t = newt; newt = tmp;
        tmp = r - q * newr; r = newr; newr = tmp;
    }
    return t < 0 ? t + p : t;
}

static PyObject *echelon_inplace(PyObject *self, PyObject *args)
{
    PyObject *obj, *col, *pivots = NULL;
    Py_ssize_t ncols, m, n, r = 0, c, i, j, piv;
    long long p;
    int64_t *a, *top, *row, inv, f, v;
    Py_buffer view;

    if (!PyArg_ParseTuple(args, "OnL:echelon_inplace", &obj, &ncols, &p))
        return NULL;
    if (p < 2 || p >= MAX_PRIME)
        return PyErr_Format(PyExc_ValueError, "modulus %lld is outside [2, 2**26)", p);
    if (PyObject_GetBuffer(obj, &view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | PyBUF_WRITABLE) < 0) {
        PyErr_Clear();
        return PyErr_Format(PyExc_ValueError,
                            "expected a writable C-contiguous buffer, not %.100s",
                            Py_TYPE(obj)->tp_name);
    }
    if (view.ndim != 2 || view.itemsize != 8 || view.format == NULL
        || !(strcmp(view.format, "q") == 0 || (strcmp(view.format, "l") == 0 && sizeof(long) == 8))) {
        PyErr_SetString(PyExc_ValueError, "expected a 2-d int64 buffer");
        goto done;
    }
    m = view.shape[0];
    n = view.shape[1];
    a = (int64_t *)view.buf;
    if (ncols < 0 || ncols > n) {
        PyErr_Format(PyExc_ValueError, "ncols %zd is outside [0, %zd]", ncols, n);
        goto done;
    }
    for (i = 0; i < m * n; i++) {
        if (a[i] < 0 || a[i] >= p) {
            PyErr_Format(PyExc_ValueError, "entry %lld is not a residue mod %lld",
                         (long long)a[i], p);
            goto done;
        }
    }
    if ((pivots = PyList_New(0)) == NULL)
        goto done;
    for (c = 0; c < ncols && r < m; c++) {
        for (piv = r; piv < m && a[piv * n + c] == 0; piv++)
            ;
        if (piv == m)
            continue;
        top = a + r * n;
        if (piv != r) {
            row = a + piv * n;
            for (j = c; j < n; j++) {
                v = top[j]; top[j] = row[j]; row[j] = v;
            }
        }
        inv = inv_mod(top[c], p);
        for (j = c; j < n; j++)
            top[j] = top[j] * inv % p;
        for (i = r + 1; i < m; i++) {
            row = a + i * n;
            f = row[c];
            if (f == 0)
                continue;
            for (j = c; j < n; j++) {
                v = (row[j] - f * top[j]) % p;
                row[j] = v < 0 ? v + p : v;
            }
        }
        col = PyLong_FromSsize_t(c);
        if (col == NULL || PyList_Append(pivots, col) < 0) {
            Py_XDECREF(col);
            Py_CLEAR(pivots);
            goto done;
        }
        Py_DECREF(col);
        r++;
    }
done:
    PyBuffer_Release(&view);
    return pivots;
}

static PyMethodDef methods[] = {
    {"echelon_inplace", echelon_inplace, METH_VARARGS,
     "echelon_inplace(a, ncols, p) -> pivot columns\n\n"
     "Row-reduce the writable C-contiguous 2-d int64 residues a mod the prime p\n"
     "in place, pivoting on the first nonzero entry in each of the first ncols\n"
     "columns: the pivot row is scaled to 1 and the rows below are reduced."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_gfcore", "Compiled GF(p) row echelon loop.", -1, methods
};

PyMODINIT_FUNC PyInit__gfcore(void)
{
    return PyModule_Create(&module);
}
