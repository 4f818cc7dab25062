/* The package's C kernels as one CPython extension module, built and
 * imported by _ckernel.py.
 *
 * _walkmap.c, _gridnav.c and _nets.c are included whole, so the kernels
 * compile as they are, and each function below wraps one of them for a
 * METH_FASTCALL call from Python. Each wrapper declares its Python signature
 * as a spec of one character per argument, which parse_args reads:
 *
 *   x  a float, as PyFloat_AsDouble converts it
 *   n  an index, as PyLong_AsSsize_t converts it
 *   p  a truth value, as PyObject_IsTrue tests it
 *   d q b f  a float64, int64, bool or float32 array; D Q B F if written to
 *   |  the arguments after it are optional
 *
 * Arrays arrive as objects exporting the buffer protocol, such as numpy
 * arrays: each must be C-contiguous with the item format and size of its
 * dtype, else the call raises ValueError naming the argument's position.
 * Row counts come from the buffers' lengths.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include "_walkmap.c"
#include "_gridnav.c"
#include "_nets.c"

/* The array kinds of a spec: the struct formats numpy exports for the dtype,
 * after at most one native byte-order prefix, and the item size. */
struct item_kind {
    char kind;
    const char *formats;
    Py_ssize_t itemsize;
    const char *dtype;
};

static const struct item_kind ITEM_KINDS[] = {
    {'d', "d", 8, "float64"}, {'q', "lq", 8, "int64"}, {'b', "?", 1, "bool"},
    {'f', "f", 4, "float32"},
};

static int has_format(const Py_buffer *view, const struct item_kind *item)
{
    const char *format = view->format ? view->format : "B";  /* NULL means unsigned bytes */
    if (*format == '@' || *format == '=' || *format == (PY_LITTLE_ENDIAN ? '<' : '>'))
        format++;
    return view->itemsize == item->itemsize && format[0] && !format[1]
        && strchr(item->formats, format[0]) != NULL;
}

/* One Python argument, converted by its spec character: x holds an 'x', n an
 * 'n' or a 'p', view an array; view.obj is NULL for the other kinds. */
struct arg {
    double x;
    Py_ssize_t n;
    Py_buffer view;
};

static void release_args(struct arg *a, Py_ssize_t nargs)
{
    for (Py_ssize_t i = 0; i < nargs; i++)
        if (a[i].view.obj)
            PyBuffer_Release(&a[i].view);
}

/* args[0..nargs-1] into a[0..nargs-1] by spec (see the top of this file).
 * On failure, no buffer is held, and -1 is returned with the exception set:
 * TypeError for a wrong count, else the conversion's own exception. */
static int parse_args(const char *name, PyObject *const *args, Py_ssize_t nargs,
                      const char *spec, struct arg *a)
{
    const char *bar = strchr(spec, '|');
    Py_ssize_t hi = (Py_ssize_t)strlen(spec) - (bar != NULL), lo = bar ? bar - spec : hi;
    if (nargs < lo || nargs > hi) {
        if (lo == hi)
            PyErr_Format(PyExc_TypeError, "%s takes %zd arguments (%zd given)", name, hi, nargs);
        else
            PyErr_Format(PyExc_TypeError, "%s takes %zd to %zd arguments (%zd given)", name, lo,
                         hi, nargs);
        return -1;
    }
    for (Py_ssize_t i = 0; i < nargs; i++, spec++) {
        spec += *spec == '|';
        char kind = *spec;
        Py_buffer *view = &a[i].view;
        const struct item_kind *item = ITEM_KINDS;
        int flags = PyBUF_STRIDES | PyBUF_FORMAT | (Py_ISUPPER(kind) ? PyBUF_WRITABLE : 0);
        int failed;
        view->obj = NULL;
        if (kind == 'x')
            failed = (a[i].x = PyFloat_AsDouble(args[i])) == -1.0 && PyErr_Occurred();
        else if (kind == 'n')
            failed = (a[i].n = PyLong_AsSsize_t(args[i])) == -1 && PyErr_Occurred();
        else if (kind == 'p')
            failed = (a[i].n = PyObject_IsTrue(args[i])) < 0;
        else if (!(failed = PyObject_GetBuffer(args[i], view, flags) < 0)) {
            while (item->kind != Py_TOLOWER(kind))
                item++;
            if ((failed = !has_format(view, item) || !PyBuffer_IsContiguous(view, 'C')))
                PyErr_Format(PyExc_ValueError,
                             "%s: array argument %zd must be a C-contiguous %s array", name,
                             i + 1, item->dtype);
        }
        if (failed) {
            release_args(a, i + 1);
            return -1;
        }
    }
    return 0;
}

/* Rows of `width` items in a buffer of 8-byte items; -1 with ValueError set
 * when its length is not a whole number of rows. */
static Py_ssize_t rows(const char *name, const Py_buffer *view, Py_ssize_t width)
{
    Py_ssize_t items = view->len / 8;
    if (items % width) {
        PyErr_Format(PyExc_ValueError, "%s: an array of %zd items is not a table of rows of %zd",
                     name, items, width);
        return -1;
    }
    return items / width;
}

/* NULL with the exception int() raises on a float that int_error (in
 * _gridnav.c) reports: ValueError for NaN, OverflowError for infinity. */
static PyObject *int_error_raise(int error)
{
    if (error == -1)
        PyErr_SetString(PyExc_ValueError, "cannot convert float NaN to integer");
    else
        PyErr_SetString(PyExc_OverflowError, "cannot convert float infinity to integer");
    return NULL;
}

/* The map's edge table, edge offsets and bboxes (WalkableMap.edges,
 * edge_start and bboxes) with the polygon count; -1 with ValueError set when
 * the offsets do not index the edge table. */
static int64_t map_polygons(const char *name, const struct arg *map)
{
    Py_ssize_t n_edges = rows(name, &map[0].view, 4);
    Py_ssize_t n_polys = rows(name, &map[2].view, 4);
    if (n_edges < 0 || n_polys < 0)
        return -1;
    const int64_t *edge_start = map[1].view.buf;
    if (map[1].view.len != 8 * (n_polys + 1) || edge_start[0] != 0
        || edge_start[n_polys] != n_edges) {
        PyErr_Format(PyExc_ValueError, "%s: edge offsets must run from 0 to the %zd edges",
                     name, n_edges);
        return -1;
    }
    return n_polys;
}

/* point_walkable(x, y, edges, edge_start, bboxes[, polygon]): whether the
 * point lies in some polygon of the map, or in the one polygon given. */
static PyObject *py_point_walkable(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    static const char name[] = "point_walkable";
    struct arg a[6];
    if (parse_args(name, args, nargs, "xxdqd|n", a) < 0)
        return NULL;
    PyObject *result = NULL;
    int64_t n_polys = map_polygons(name, &a[2]);
    const double *edges = a[2].view.buf, *bboxes = a[4].view.buf;
    const int64_t *edge_start = a[3].view.buf;
    if (n_polys < 0)
        goto done;
    if (nargs == 5)
        result = PyBool_FromLong(point_walkable(a[0].x, a[1].x, edges, edge_start, bboxes,
                                                n_polys));
    else if (a[5].n >= 0 && a[5].n < n_polys)
        result = PyBool_FromLong(point_walkable(a[0].x, a[1].x, edges, edge_start + a[5].n,
                                                bboxes + 4 * a[5].n, 1));
    else
        PyErr_Format(PyExc_ValueError, "%s: no polygon %zd among %lld", name, a[5].n,
                     (long long)n_polys);
done:
    release_args(a, nargs);
    return result;
}

/* first_disc_holding(x, y, margin, closed, bounds, start): the first row at or
 * after `start` of the (n, 3) obstacle bounds whose grown disc holds the
 * point, else n. */
static PyObject *py_first_disc_holding(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    static const char name[] = "first_disc_holding";
    struct arg a[6];
    if (parse_args(name, args, nargs, "xxxpdn", a) < 0)
        return NULL;
    PyObject *result = NULL;
    Py_ssize_t n, start = a[5].n;
    if (start < 0)
        PyErr_Format(PyExc_ValueError, "%s: start must be >= 0", name);
    else if ((n = rows(name, &a[4].view, 3)) >= 0)
        result = PyLong_FromLong(first_disc_holding(a[0].x, a[1].x, a[2].x, a[3].n,
                                                    a[4].view.buf, start, n));
    release_args(a, nargs);
    return result;
}

/* raycast_loop(ox, oy, ch, sh, max_range, units, circles, rect_segments,
 * rect_bounds, edges, edge_start, bboxes, out): the ranges of len(out) rays
 * into out; units holds the rays' cosines, then their sines. */
static PyObject *py_raycast_loop(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    static const char name[] = "raycast_loop";
    struct arg a[13];
    if (parse_args(name, args, nargs, "xxxxxdddddqdD", a) < 0)
        return NULL;
    PyObject *result = NULL;
    Py_buffer *units = &a[5].view, *circles = &a[6].view, *rect_segs = &a[7].view;
    Py_buffer *rect_bounds = &a[8].view, *out = &a[12].view;
    Py_ssize_t n = out->len / 8;
    Py_ssize_t n_circles = rows(name, circles, 3);
    Py_ssize_t n_rect = rows(name, rect_bounds, 3);
    int64_t n_polys = n_circles < 0 || n_rect < 0 ? -1 : map_polygons(name, &a[9]);
    if (n_polys < 0)
        goto done;
    if (units->len != 16 * n || rect_segs->len != 128 * n_rect)
        PyErr_Format(PyExc_ValueError, "%s: %zd rays need 2 x %zd units, and %zd cuboids "
                     "4 x %zd side rows", name, n, n, n_rect, n_rect);
    else if (raycast_loop(a[0].x, a[1].x, a[2].x, a[3].x, units->buf, n, a[4].x, circles->buf,
                          n_circles, rect_segs->buf, rect_bounds->buf, n_rect, a[9].view.buf,
                          a[10].view.buf, a[11].view.buf, n_polys, out->buf))
        PyErr_SetString(PyExc_MemoryError, "raycast kernel could not allocate its scratch buffers");
    else
        result = Py_NewRef(Py_None);
done:
    release_args(a, nargs);
    return result;
}

/* The (ny, nx) shape of a 2-D buffer, which `other` must share; -1 with
 * ValueError set otherwise. */
static int grid_shape(const char *name, const Py_buffer *grid, const Py_buffer *other,
                      int64_t *ny, int64_t *nx)
{
    if (grid->ndim != 2 || other->ndim != 2 || grid->shape[0] != other->shape[0]
        || grid->shape[1] != other->shape[1]) {
        PyErr_Format(PyExc_ValueError, "%s: the grid arrays must be 2-D of one shape", name);
        return -1;
    }
    *ny = grid->shape[0];
    *nx = grid->shape[1];
    return 0;
}

/* grid_dijkstra(free, row, col, straight, diagonal, dist): distances over the
 * free cells of the (ny, nx) grid from the free cell (row, col) into dist. */
static PyObject *py_grid_dijkstra(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    static const char name[] = "grid_dijkstra";
    struct arg a[6];
    if (parse_args(name, args, nargs, "bnnxxD", a) < 0)
        return NULL;
    PyObject *result = NULL;
    Py_ssize_t row = a[1].n, col = a[2].n;
    int64_t ny, nx;
    if (grid_shape(name, &a[0].view, &a[5].view, &ny, &nx) < 0)
        goto done;
    const unsigned char *free_cells = a[0].view.buf;
    if (row < 0 || row >= ny || col < 0 || col >= nx || !free_cells[row * nx + col])
        PyErr_Format(PyExc_ValueError, "%s: the source (%zd, %zd) is not a free cell", name, row,
                     col);
    else if (grid_dijkstra(free_cells, ny, nx, row, col, a[3].x, a[4].x, a[5].view.buf))
        PyErr_SetString(PyExc_MemoryError, "grid Dijkstra kernel could not allocate its heap");
    else
        result = Py_NewRef(Py_None);
done:
    release_args(a, nargs);
    return result;
}

/* grid_lookahead(x, y, lookahead, values, free, minx, miny, res, goal_x,
 * goal_y): the lookahead point as (x, y), or None when the start cell is off
 * the grid or has no finite value. */
static PyObject *py_grid_lookahead(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    static const char name[] = "grid_lookahead";
    struct arg a[10];
    if (parse_args(name, args, nargs, "xxxdbxxxxx", a) < 0)
        return NULL;
    PyObject *result = NULL;
    int64_t ny, nx;
    double target[2];
    if (grid_shape(name, &a[3].view, &a[4].view, &ny, &nx) == 0)
        result = grid_lookahead(a[0].x, a[1].x, a[2].x, a[3].view.buf, a[4].view.buf, ny, nx,
                                a[5].x, a[6].x, a[7].x, a[8].x, a[9].x, target)
            ? Py_NewRef(Py_None) : Py_BuildValue("(dd)", target[0], target[1]);
    release_args(a, nargs);
    return result;
}

/* corridor_hit(lidar, bearing, half_angle, half_width): (depth, lateral
 * offset) of the nearest lidar hit in the corridor toward the bearing, as
 * planner.corridor_hit returns it. */
static PyObject *py_corridor_hit(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    struct arg a[4];
    if (parse_args("corridor_hit", args, nargs, "dxxx", a) < 0)
        return NULL;
    double hit[2];
    int error = corridor_hit(a[0].view.buf, a[0].view.len / 8, a[1].x, a[2].x, a[3].x, hit);
    release_args(a, nargs);
    if (error)
        return int_error_raise(error);
    return Py_BuildValue("(dd)", hit[0], hit[1]);
}

/* stamp_obstacles(free, rows, minx, miny, res, inflate): clear the cells of
 * the bool raster free that the obstacles of the (n, 9) table rows cover,
 * grown by inflate. */
static PyObject *py_stamp_obstacles(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    static const char name[] = "stamp_obstacles";
    struct arg a[6];
    if (parse_args(name, args, nargs, "Bdxxxx", a) < 0)
        return NULL;
    PyObject *result = NULL;
    Py_buffer *raster = &a[0].view;
    Py_ssize_t n = rows(name, &a[1].view, 9);
    if (n < 0)
        goto done;
    if (raster->ndim != 2) {
        PyErr_Format(PyExc_ValueError, "%s: the raster must be 2-D", name);
        goto done;
    }
    int error = stamp_obstacles(raster->buf, raster->shape[0], raster->shape[1], a[1].view.buf,
                                n, a[2].x, a[3].x, a[4].x, a[5].x);
    result = error ? int_error_raise(error) : Py_NewRef(Py_None);
done:
    release_args(a, nargs);
    return result;
}

/* adam_step(p, g, m, v, beta1, 1 - beta1, beta2, 1 - beta2, lr, b1c, b2c,
 * eps): one Adam step of the float32 parameter array p, in place with its
 * moments m and v; False, with nothing written, when the gradient g holds a
 * NaN or an inf. Each scalar is a Python float rounded once to float32. */
static PyObject *py_adam_step(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    static const char name[] = "adam_step";
    struct arg a[4 + N_SCALARS];
    if (parse_args(name, args, nargs, "FfFFxxxxxxxx", a) < 0)  /* N_SCALARS x's */
        return NULL;
    PyObject *result = NULL;
    Py_ssize_t len = a[0].view.len;
    if (a[1].view.len != len || a[2].view.len != len || a[3].view.len != len) {
        PyErr_Format(PyExc_ValueError, "%s: the parameters, gradient and moments must have one "
                     "length", name);
        goto done;
    }
    float s[N_SCALARS];
    for (int i = 0; i < N_SCALARS; i++)
        s[i] = (float)a[4 + i].x;
    result = PyBool_FromLong(adam_step(a[0].view.buf, a[1].view.buf, a[2].view.buf,
                                       a[3].view.buf, len / 4, s));
done:
    release_args(a, nargs);
    return result;
}

#define FASTCALL(name, fn) {name, (PyCFunction)(void (*)(void))fn, METH_FASTCALL, NULL}

static PyMethodDef methods[] = {
    FASTCALL("point_walkable", py_point_walkable),
    FASTCALL("raycast_loop", py_raycast_loop),
    FASTCALL("first_disc_holding", py_first_disc_holding),
    FASTCALL("grid_dijkstra", py_grid_dijkstra),
    FASTCALL("grid_lookahead", py_grid_lookahead),
    FASTCALL("corridor_hit", py_corridor_hit),
    FASTCALL("stamp_obstacles", py_stamp_obstacles),
    FASTCALL("adam_step", py_adam_step),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "sidewalksim._kernels",
    "The package's C kernels; see _ckernel.load().", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__kernels(void)
{
    return PyModule_Create(&module);
}
