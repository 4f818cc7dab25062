/* The package's C kernels as one CPython extension module, built and
 * imported by _ckernel.py.
 *
 * _walkmap.c, _gridnav.c and _nets.c are included whole, so the kernels
 * compile as they are, and each function below wraps one of them for a
 * METH_FASTCALL call from Python. Arrays arrive as objects exporting the
 * buffer protocol, such as numpy arrays: each must be C-contiguous with the
 * item format and size of the numpy dtype its kernel reads (float64, int64,
 * bool or float32), else the call raises ValueError. Row counts come from
 * the buffers' lengths.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include "_walkmap.c"
#include "_gridnav.c"
#include "_nets.c"

/* The item kinds of get_buffers: the struct formats numpy exports for the
 * dtype, after at most one native byte-order prefix, and the item size. */
struct item_kind {
    char kind;         /* lower case read-only, upper case writable */
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

/* C-contiguous buffers of args[0..], one per character of `kinds`: 'd'
 * float64, 'q' int64, 'b' bool, 'f' float32, and 'D', 'B', 'F' for writable
 * ones of those. On failure, every buffer taken is released and -1 returned
 * with the exception set. */
static int get_buffers(const char *name, PyObject *const *args, const char *kinds,
                       Py_buffer *views)
{
    for (int i = 0; kinds[i]; i++) {
        char kind = kinds[i];
        const struct item_kind *item = ITEM_KINDS;
        while (item->kind != Py_TOLOWER(kind))
            item++;
        int flags = PyBUF_STRIDES | PyBUF_FORMAT | (Py_ISUPPER(kind) ? PyBUF_WRITABLE : 0);
        int ok = PyObject_GetBuffer(args[i], &views[i], flags) == 0;
        if (ok && (!has_format(&views[i], item) || !PyBuffer_IsContiguous(&views[i], 'C'))) {
            PyBuffer_Release(&views[i]);
            PyErr_Format(PyExc_ValueError,
                         "%s: array argument %d must be a C-contiguous %s array",
                         name, i + 1, item->dtype);
            ok = 0;
        }
        if (!ok) {
            while (i-- > 0)
                PyBuffer_Release(&views[i]);
            return -1;
        }
    }
    return 0;
}

static void release_buffers(Py_buffer *views, int n)
{
    for (int i = 0; i < n; i++)
        PyBuffer_Release(&views[i]);
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

static int check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t lo, Py_ssize_t hi)
{
    if (nargs >= lo && nargs <= hi)
        return 0;
    if (lo == hi)
        PyErr_Format(PyExc_TypeError, "%s takes %zd arguments (%zd given)", name, hi, nargs);
    else
        PyErr_Format(PyExc_TypeError, "%s takes %zd to %zd arguments (%zd given)", name, lo, hi,
                     nargs);
    return -1;
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

/* Scalars args[0..n-1] as doubles; -1 with the exception set on failure. */
static int get_doubles(PyObject *const *args, int n, double *out)
{
    for (int i = 0; i < n; i++) {
        out[i] = PyFloat_AsDouble(args[i]);
        if (out[i] == -1.0 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* The map's edge table, edge offsets and bboxes (WalkableMap.edges,
 * edge_start and bboxes) with the polygon count; -1 with ValueError set when
 * the offsets do not index the edge table. */
static int64_t map_polygons(const char *name, const Py_buffer *map)
{
    Py_ssize_t n_edges = rows(name, &map[0], 4);
    Py_ssize_t n_polys = rows(name, &map[2], 4);
    if (n_edges < 0 || n_polys < 0)
        return -1;
    const int64_t *edge_start = map[1].buf;
    if (map[1].len != 8 * (n_polys + 1) || edge_start[0] != 0 || edge_start[n_polys] != n_edges) {
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
    double xy[2];
    Py_buffer map[3];
    if (check_nargs(name, nargs, 5, 6) < 0 || get_doubles(args, 2, xy) < 0)
        return NULL;
    Py_ssize_t polygon = -1;
    if (nargs == 6 && (polygon = PyLong_AsSsize_t(args[5])) == -1 && PyErr_Occurred())
        return NULL;
    if (get_buffers(name, args + 2, "dqd", map) < 0)
        return NULL;
    PyObject *result = NULL;
    int64_t n_polys = map_polygons(name, map);
    if (n_polys < 0)
        goto done;
    const double *edges = map[0].buf, *bboxes = map[2].buf;
    const int64_t *edge_start = map[1].buf;
    if (nargs == 5) {
        result = PyBool_FromLong(point_walkable(xy[0], xy[1], edges, edge_start, bboxes, n_polys));
    } else if (polygon >= 0 && polygon < n_polys) {
        result = PyBool_FromLong(point_walkable(xy[0], xy[1], edges, edge_start + polygon,
                                                bboxes + 4 * polygon, 1));
    } else {
        PyErr_Format(PyExc_ValueError, "%s: no polygon %zd among %lld", name, polygon,
                     (long long)n_polys);
    }
done:
    release_buffers(map, 3);
    return result;
}

/* first_disc_holding(x, y, margin, closed, bounds, start): the first row at or
 * after `start` of the (n, 3) obstacle bounds whose grown disc holds the
 * point, else n. */
static PyObject *py_first_disc_holding(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    static const char name[] = "first_disc_holding";
    double xym[3];
    Py_buffer bounds;
    if (check_nargs(name, nargs, 6, 6) < 0 || get_doubles(args, 3, xym) < 0)
        return NULL;
    int closed = PyObject_IsTrue(args[3]);
    Py_ssize_t start = PyLong_AsSsize_t(args[5]);
    if (closed < 0 || (start == -1 && PyErr_Occurred()))
        return NULL;
    if (start < 0) {
        PyErr_Format(PyExc_ValueError, "%s: start must be >= 0", name);
        return NULL;
    }
    if (get_buffers(name, args + 4, "d", &bounds) < 0)
        return NULL;
    PyObject *result = NULL;
    Py_ssize_t n = rows(name, &bounds, 3);
    if (n >= 0)
        result = PyLong_FromLong(first_disc_holding(xym[0], xym[1], xym[2], closed, bounds.buf,
                                                    start, n));
    release_buffers(&bounds, 1);
    return result;
}

/* raycast_loop(ox, oy, ch, sh, max_range, units, circles, rect_segments,
 * rect_bounds, edges, edge_start, bboxes, out): the ranges of len(out) rays
 * into out; units holds the rays' cosines, then their sines. */
static PyObject *py_raycast_loop(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    static const char name[] = "raycast_loop";
    double s[5];  /* ox, oy, ch, sh, max_range */
    Py_buffer b[8];
    if (check_nargs(name, nargs, 13, 13) < 0 || get_doubles(args, 5, s) < 0
        || get_buffers(name, args + 5, "dddddqdD", b) < 0)
        return NULL;
    PyObject *result = NULL;
    Py_buffer *units = &b[0], *circles = &b[1], *rect_segs = &b[2], *rect_bounds = &b[3];
    Py_buffer *map = &b[4], *out = &b[7];
    Py_ssize_t n = out->len / 8;
    Py_ssize_t n_circles = rows(name, circles, 3);
    Py_ssize_t n_rect = rows(name, rect_bounds, 3);
    int64_t n_polys = n_circles < 0 || n_rect < 0 ? -1 : map_polygons(name, map);
    if (n_polys < 0)
        goto done;
    if (units->len != 16 * n || rect_segs->len != 128 * n_rect) {
        PyErr_Format(PyExc_ValueError, "%s: %zd rays need 2 x %zd units, and %zd cuboids "
                     "4 x %zd side rows", name, n, n, n_rect, n_rect);
        goto done;
    }
    if (raycast_loop(s[0], s[1], s[2], s[3], units->buf, n, s[4], circles->buf, n_circles,
                     rect_segs->buf, rect_bounds->buf, n_rect, map[0].buf, map[1].buf,
                     map[2].buf, n_polys, out->buf)) {
        PyErr_SetString(PyExc_MemoryError, "raycast kernel could not allocate its scratch buffers");
        goto done;
    }
    result = Py_NewRef(Py_None);
done:
    release_buffers(b, 8);
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
    double costs[2];
    Py_buffer b[2];
    if (check_nargs(name, nargs, 6, 6) < 0 || get_doubles(args + 3, 2, costs) < 0)
        return NULL;
    Py_ssize_t row = PyLong_AsSsize_t(args[1]);
    if (row == -1 && PyErr_Occurred())
        return NULL;
    Py_ssize_t col = PyLong_AsSsize_t(args[2]);
    if (col == -1 && PyErr_Occurred())
        return NULL;
    PyObject *pair[2] = {args[0], args[5]};
    if (get_buffers(name, pair, "bD", b) < 0)
        return NULL;
    PyObject *result = NULL;
    int64_t ny, nx;
    if (grid_shape(name, &b[0], &b[1], &ny, &nx) < 0)
        goto done;
    const unsigned char *free_cells = b[0].buf;
    if (row < 0 || row >= ny || col < 0 || col >= nx || !free_cells[row * nx + col]) {
        PyErr_Format(PyExc_ValueError, "%s: the source (%zd, %zd) is not a free cell", name, row,
                     col);
        goto done;
    }
    if (grid_dijkstra(free_cells, ny, nx, row, col, costs[0], costs[1], b[1].buf)) {
        PyErr_SetString(PyExc_MemoryError, "grid Dijkstra kernel could not allocate its heap");
        goto done;
    }
    result = Py_NewRef(Py_None);
done:
    release_buffers(b, 2);
    return result;
}

/* grid_lookahead(x, y, lookahead, values, free, minx, miny, res, goal_x,
 * goal_y): the lookahead point as (x, y), or None when the start cell is off
 * the grid or has no finite value. */
static PyObject *py_grid_lookahead(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    static const char name[] = "grid_lookahead";
    double s[8];  /* x, y, lookahead, minx, miny, res, goal_x, goal_y */
    Py_buffer b[2];
    if (check_nargs(name, nargs, 10, 10) < 0 || get_doubles(args, 3, s) < 0
        || get_doubles(args + 5, 5, s + 3) < 0 || get_buffers(name, args + 3, "db", b) < 0)
        return NULL;
    PyObject *result = NULL;
    int64_t ny, nx;
    double target[2];
    if (grid_shape(name, &b[0], &b[1], &ny, &nx) < 0)
        goto done;
    if (grid_lookahead(s[0], s[1], s[2], b[0].buf, b[1].buf, ny, nx, s[3], s[4], s[5], s[6],
                       s[7], target))
        result = Py_NewRef(Py_None);
    else
        result = Py_BuildValue("(dd)", target[0], target[1]);
done:
    release_buffers(b, 2);
    return result;
}

/* corridor_hit(lidar, bearing, half_angle, half_width): (depth, lateral
 * offset) of the nearest lidar hit in the corridor toward the bearing, as
 * planner.corridor_hit returns it. */
static PyObject *py_corridor_hit(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    static const char name[] = "corridor_hit";
    double s[3];  /* bearing, half_angle, half_width */
    Py_buffer lidar;
    if (check_nargs(name, nargs, 4, 4) < 0 || get_doubles(args + 1, 3, s) < 0
        || get_buffers(name, args, "d", &lidar) < 0)
        return NULL;
    double hit[2];
    int error = corridor_hit(lidar.buf, lidar.len / 8, s[0], s[1], s[2], hit);
    release_buffers(&lidar, 1);
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
    double s[4];  /* minx, miny, res, inflate */
    Py_buffer b[2];
    if (check_nargs(name, nargs, 6, 6) < 0 || get_doubles(args + 2, 4, s) < 0
        || get_buffers(name, args, "Bd", b) < 0)
        return NULL;
    PyObject *result = NULL;
    Py_ssize_t n = rows(name, &b[1], 9);
    if (n < 0)
        goto done;
    if (b[0].ndim != 2) {
        PyErr_Format(PyExc_ValueError, "%s: the raster must be 2-D", name);
        goto done;
    }
    int error = stamp_obstacles(b[0].buf, b[0].shape[0], b[0].shape[1], b[1].buf, n, s[0], s[1],
                                s[2], s[3]);
    result = error ? int_error_raise(error) : Py_NewRef(Py_None);
done:
    release_buffers(b, 2);
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
    double d[N_SCALARS];
    float s[N_SCALARS];
    Py_buffer b[4];
    if (check_nargs(name, nargs, 4 + N_SCALARS, 4 + N_SCALARS) < 0
        || get_doubles(args + 4, N_SCALARS, d) < 0 || get_buffers(name, args, "FfFF", b) < 0)
        return NULL;
    PyObject *result = NULL;
    if (b[1].len != b[0].len || b[2].len != b[0].len || b[3].len != b[0].len) {
        PyErr_Format(PyExc_ValueError, "%s: the parameters, gradient and moments must have one "
                     "length", name);
        goto done;
    }
    for (int i = 0; i < N_SCALARS; i++)
        s[i] = (float)d[i];
    result = PyBool_FromLong(adam_step(b[0].buf, b[1].buf, b[2].buf, b[3].buf, b[0].len / 4, s));
done:
    release_buffers(b, 4);
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
