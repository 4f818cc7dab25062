/* 8-connected grid Dijkstra, loaded by gridnav.py through ctypes, and the
 * teacher's lookahead walk over its fields, loaded by planner.py.
 *
 * Each relaxation is nd = d + w, with the straight and diagonal step costs
 * passed in from Python, and the file is built with -ffp-contract=off, so
 * every sum is the double the heapq implementation in gridnav.py computes.
 * Step costs are positive, so a cell's final distance is the minimum over its
 * free neighbours of (their final distance + step cost) whatever order equal
 * keys leave the heap in, and the two implementations return bit-identical
 * fields.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

struct entry {
    double d;
    int64_t cell;
};

static void heap_push(struct entry *heap, int64_t *n, double d, int64_t cell)
{
    int64_t i = (*n)++;
    while (i > 0) {
        int64_t parent = (i - 1) / 2;
        if (heap[parent].d <= d)
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i].d = d;
    heap[i].cell = cell;
}

static struct entry heap_pop(struct entry *heap, int64_t *n)
{
    struct entry top = heap[0];
    struct entry last = heap[--(*n)];
    int64_t m = *n;
    int64_t i = 0;
    if (m == 0)
        return top;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= m)
            break;
        if (child + 1 < m && heap[child + 1].d < heap[child].d)
            child++;
        if (last.d <= heap[child].d)
            break;
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = last;
    return top;
}

static const int DR[8] = {-1, -1, -1, 0, 0, 1, 1, 1};
static const int DC[8] = {-1, 0, 1, -1, 1, -1, 0, 1};

/* Distances from the source cell over the free cells of a row-major (ny, nx)
 * grid into dist; inf where unreachable. The source must be a free cell.
 * A cell is expanded once, when its final entry leaves the heap, and pushes
 * at most 8 entries, so the heap never holds more than 8 * cells + 1.
 * Returns 0 on success, -1 when the heap cannot be allocated. */
int grid_dijkstra(const unsigned char *free_cells, int64_t ny, int64_t nx,
                  int64_t src_row, int64_t src_col,
                  double straight, double diagonal, double *dist)
{
    int64_t cells = ny * nx;
    struct entry *heap = malloc((size_t)(8 * cells + 1) * sizeof(struct entry));
    if (!heap)
        return -1;
    for (int64_t i = 0; i < cells; i++)
        dist[i] = INFINITY;

    int64_t n = 0;
    int64_t src = src_row * nx + src_col;
    dist[src] = 0.0;
    heap_push(heap, &n, 0.0, src);
    while (n > 0) {
        struct entry e = heap_pop(heap, &n);
        if (e.d > dist[e.cell])
            continue;
        int64_t r = e.cell / nx;
        int64_t c = e.cell % nx;
        for (int k = 0; k < 8; k++) {
            int64_t rr = r + DR[k];
            int64_t cc = c + DC[k];
            if (rr < 0 || rr >= ny || cc < 0 || cc >= nx)
                continue;
            int64_t v = rr * nx + cc;
            if (!free_cells[v])
                continue;
            double nd = e.d + (DR[k] && DC[k] ? diagonal : straight);
            if (nd < dist[v]) {
                dist[v] = nd;
                heap_push(heap, &n, nd, v);
            }
        }
    }
    free(heap);
    return 0;
}

/* -- lookahead walk ----------------------------------------------------------
 *
 * The body of planner.DistanceField._lookahead_walk and of
 * gridnav.line_of_sight, written with Python's expressions in Python's order.
 * Python's math.hypot is not libm's hypot (they differ in the last bit on
 * about 0.6 % of random pairs), so python_hypot below ports CPython 3.11's
 * two-argument vector_norm (Modules/mathmodule.c): Dekker's exact product,
 * a compensated sum and one differential correction.
 */

struct double_length {
    double hi;
    double lo;
};

/* Compensated sum of a and b, |a| >= |b|: hi + lo == a + b exactly. */
static struct double_length dl_fast_sum(double a, double b)
{
    double x = a + b;
    double y = (a - x) + b;
    return (struct double_length){x, y};
}

/* Veltkamp split of x into two 26-bit halves (Dekker 5.5 and 5.6). */
static struct double_length dl_split(double x)
{
    double t = x * 134217729.0; /* 2 ** 27 + 1 */
    double hi = t - (t - x);
    double lo = x - hi;
    return (struct double_length){hi, lo};
}

/* Exact product: hi + lo == x * y (Dekker 5.12, mul12). */
static struct double_length dl_mul(double x, double y)
{
    struct double_length xx = dl_split(x);
    struct double_length yy = dl_split(y);
    double p = xx.hi * yy.hi;
    double q = xx.hi * yy.lo + xx.lo * yy.hi;
    double z = p + q;
    double zz = p - z + q + xx.lo * yy.lo;
    return (struct double_length){z, zz};
}

/* vector_norm for two finite non-negative coordinates of which max is the
 * larger, max > 0. */
static double norm2(double a, double b, double max)
{
    int max_e;
    frexp(max, &max_e);
    if (max_e < -1023) /* ldexp(1.0, -max_e) would overflow */
        return DBL_MIN * norm2(a / DBL_MIN, b / DBL_MIN, max / DBL_MIN);
    double scale = ldexp(1.0, -max_e);
    double csum = 1.0, frac1 = 0.0, frac2 = 0.0;
    double vec[2] = {a, b};
    struct double_length pr, sm;
    for (int i = 0; i < 2; i++) {
        double x = vec[i] * scale; /* lossless scaling */
        pr = dl_mul(x, x);         /* lossless squaring */
        sm = dl_fast_sum(csum, pr.hi);
        csum = sm.hi;
        frac1 += pr.lo;
        frac2 += sm.lo;
    }
    double h = sqrt(csum - 1.0 + (frac1 + frac2));
    pr = dl_mul(-h, h);
    sm = dl_fast_sum(csum, pr.hi);
    csum = sm.hi;
    frac1 += pr.lo;
    frac2 += sm.lo;
    double x = csum - 1.0 + (frac1 + frac2);
    h += x / (2.0 * h); /* differential correction */
    return h / scale;
}

/* math.hypot(x, y) of CPython 3.11, bit for bit; exported for the tests. */
double python_hypot(double x, double y)
{
    x = fabs(x);
    y = fabs(y);
    double max = 0.0;
    if (x > max)
        max = x;
    if (y > max)
        max = y;
    if (isinf(max))
        return max;
    if (isnan(x) || isnan(y))
        return NAN;
    if (max == 0.0)
        return max;
    return norm2(x, y, max);
}

/* int(math.floor((v - origin) / res)) when it lies in [0, n), else -1. */
static int64_t axis_cell(double v, double origin, double res, int64_t n)
{
    double f = floor((v - origin) / res);
    return f >= 0.0 && f < (double)n ? (int64_t)f : -1;
}

struct grid {
    const unsigned char *free_cells;
    int64_t ny, nx;
    double minx, miny, res;
};

/* gridnav.line_of_sight: the segment sampled every 1/3 cell crosses only
 * free in-grid cells. */
static int line_of_sight(const struct grid *g, double x0, double y0, double x1, double y1)
{
    double dist = python_hypot(x1 - x0, y1 - y0);
    double steps = ceil(dist / (g->res / 3.0));
    int64_t n = steps > 1.0 ? (int64_t)steps : 1;
    for (int64_t i = 0; i <= n; i++) {
        double t = (double)i / (double)n;
        int64_t col = axis_cell(x0 + t * (x1 - x0), g->minx, g->res, g->nx);
        int64_t row = axis_cell(y0 + t * (y1 - y0), g->miny, g->res, g->ny);
        if (col < 0 || row < 0 || !g->free_cells[row * g->nx + col])
            return 0;
    }
    return 1;
}

/* Farthest visible point within `lookahead` meters of the steepest-descent
 * walk from (x, y) over the row-major (ny, nx) field `values` (inf where
 * blocked), into target[0..1]. Neighbours are tried in _NEIGHBORS8 order and
 * replace the best only when strictly lower, so ties resolve as in Python.
 * free_cells is the grid line of sight is checked on. Returns 0 on success,
 * 1 when the start cell is off the grid or has no finite value (the caller
 * nudges the agent toward the best nearby cell instead). */
int grid_lookahead(double x, double y, double lookahead,
                   const double *values, const unsigned char *free_cells,
                   int64_t ny, int64_t nx, double minx, double miny, double res,
                   double goal_x, double goal_y, double *target)
{
    const struct grid g = {free_cells, ny, nx, minx, miny, res};
    int64_t row = axis_cell(y, miny, res, ny);
    int64_t col = axis_cell(x, minx, res, nx);
    if (row < 0 || col < 0 || !isfinite(values[row * nx + col]))
        return 1;
    double px = x, py = y, travelled = 0.0;
    int have_target = 0;
    while (travelled < lookahead) {
        double best = values[row * nx + col];
        int64_t next_row = -1, next_col = -1;
        for (int k = 0; k < 8; k++) {
            int64_t rr = row + DR[k];
            int64_t cc = col + DC[k];
            if (rr >= 0 && rr < ny && cc >= 0 && cc < nx && values[rr * nx + cc] < best) {
                best = values[rr * nx + cc];
                next_row = rr;
                next_col = cc;
            }
        }
        if (next_row < 0) {
            /* local minimum: the goal cell itself */
            if (!have_target || line_of_sight(&g, x, y, goal_x, goal_y)) {
                target[0] = goal_x;
                target[1] = goal_y;
            }
            return 0;
        }
        double cx = minx + ((double)next_col + 0.5) * res;
        double cy = miny + ((double)next_row + 0.5) * res;
        if (have_target && !line_of_sight(&g, x, y, cx, cy))
            return 0; /* path curls out of sight: keep the last visible point */
        target[0] = cx;
        target[1] = cy;
        have_target = 1;
        travelled += python_hypot(cx - px, cy - py);
        px = cx;
        py = cy;
        row = next_row;
        col = next_col;
    }
    if (!have_target) {
        target[0] = px;
        target[1] = py;
    }
    return 0;
}
