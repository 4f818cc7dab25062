/* 8-connected grid Dijkstra and the teacher's lookahead walk over its
 * fields, both wrapped by _kernels.c, the module _ckernel.py builds, and
 * called from gridnav.py.
 *
 * Each relaxation is nd = d + w, with the straight and diagonal step costs
 * passed in from Python, and the file is built with -ffp-contract=off, so
 * every sum is the double the heapq implementation in gridnav.py computes.
 * Step costs are positive, so a cell's final distance is the minimum over its
 * free neighbours of (their final distance + step cost) whatever order equal
 * keys leave the heap in, and the two implementations return bit-identical
 * fields.
 */
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
 * The body of gridnav.DistanceField._lookahead_walk and of
 * gridnav.line_of_sight, written with Python's expressions in Python's order.
 * Lengths are sqrt(dx * dx + dy * dy) on both sides, not hypot: IEEE 754
 * rounds *, + and sqrt correctly in C (built with -ffp-contract=off) and in
 * Python alike, so both sides measure every length to the same double,
 * whereas Python's math.hypot and libm's hypot differ in the last bit on
 * some pairs.
 */

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
    double dx = x1 - x0, dy = y1 - y0;
    double dist = sqrt(dx * dx + dy * dy);
    double steps = ceil(dist / (g->res / 3.0));
    int64_t n = steps > 1.0 ? (int64_t)steps : 1;
    for (int64_t i = 0; i <= n; i++) {
        double t = (double)i / (double)n;
        int64_t col = axis_cell(x0 + t * dx, g->minx, g->res, g->nx);
        int64_t row = axis_cell(y0 + t * dy, g->miny, g->res, g->ny);
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
        double dx = cx - px, dy = cy - py;
        travelled += sqrt(dx * dx + dy * dy);
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
