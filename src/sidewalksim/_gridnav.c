/* The planning kernels, wrapped by _kernels.c, the module _ckernel.py builds:
 * the 8-connected grid Dijkstra, the teacher's lookahead walk over its fields
 * with its line-of-sight checks, and the obstacle stamping of the free-space
 * raster (all called from gridnav.py), and the teacher's lidar corridor query
 * (called from planner.py).
 *
 * Each relaxation is nd = d + w, with the straight and diagonal step costs
 * passed in from Python, and the file is built with -ffp-contract=off, so
 * every sum is the double the heapq implementation in gridnav.py computes.
 * Step costs are positive, so a cell's final distance is the minimum over its
 * free neighbours of (their final distance + step cost) whatever order equal
 * keys leave the heap in, and the two implementations return bit-identical
 * fields. The search runs on distances framed by one blocked cell on every
 * side, so a cell reaches its 8 neighbours through fixed index offsets with
 * no bounds check and no division.
 *
 * corridor_hit and stamp_obstacles copy planner.corridor_hit and the numpy
 * stamping loop of gridnav.free_space_grid (with Obstacle.covers) expression
 * for expression, sin and cos being libm's, which Python's math calls: both
 * return what their Python paths return, bit for bit.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#ifndef M_PI
#define M_PI 3.14159265358979323846
#endif

/* 0 when int(v) would succeed in Python; -1 when v is NaN, where it raises
 * ValueError, and -2 when v is infinite, where it raises OverflowError. */
static int int_error(double v)
{
    return isnan(v) ? -1 : isinf(v) ? -2 : 0;
}

struct entry {
    double d;
    int64_t cell;
};

/* A binary min-heap of n entries, with an entry of key +inf at heap[n], past
 * the last one, so heap_pop compares a lone child with it rather than test
 * whether the right child exists. */
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
    heap[*n].d = INFINITY;
}

static struct entry heap_pop(struct entry *heap, int64_t *n)
{
    struct entry top = heap[0];
    int64_t m = --(*n);
    struct entry last = heap[m];
    heap[m].d = INFINITY;
    if (m == 0)
        return top;
    int64_t i = 0;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= m)
            break;
        child += heap[child + 1].d < heap[child].d;
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
 * at most 8 entries, so the heap never holds more than 8 * cells + 1, and
 * its +inf entry one more.
 * Returns 0 on success, -1 when the scratch arrays cannot be allocated. */
int grid_dijkstra(const unsigned char *free_cells, int64_t ny, int64_t nx,
                  int64_t src_row, int64_t src_col,
                  double straight, double diagonal, double *dist)
{
    /* the distances in a frame one cell wider on every side: padded cell
     * (r + 1, c + 1) is grid cell (r, c). A blocked cell, the frame's
     * included, holds -inf, which no relaxation lowers. */
    int64_t pnx = nx + 2, cells = (ny + 2) * pnx;
    double *pdist = malloc((size_t)cells * sizeof(double));
    struct entry *heap = malloc((size_t)(8 * ny * nx + 2) * sizeof(struct entry));
    if (!pdist || !heap) {
        free(pdist);
        free(heap);
        return -1;
    }
    for (int64_t i = 0; i < cells; i++)
        pdist[i] = -INFINITY;
    for (int64_t r = 0; r < ny; r++)
        for (int64_t c = 0; c < nx; c++)
            pdist[(r + 1) * pnx + c + 1] = free_cells[r * nx + c] ? INFINITY : -INFINITY;
    int64_t offset[8];
    double cost[8];
    for (int k = 0; k < 8; k++) {
        offset[k] = DR[k] * pnx + DC[k];
        cost[k] = DR[k] && DC[k] ? diagonal : straight;
    }

    int64_t n = 0;
    int64_t src = (src_row + 1) * pnx + src_col + 1;
    pdist[src] = 0.0;
    heap_push(heap, &n, 0.0, src);
    while (n > 0) {
        struct entry e = heap_pop(heap, &n);
        if (e.d > pdist[e.cell])
            continue;
        for (int k = 0; k < 8; k++) {
            int64_t v = e.cell + offset[k];
            double nd = e.d + cost[k];
            if (nd < pdist[v]) {
                pdist[v] = nd;
                heap_push(heap, &n, nd, v);
            }
        }
    }
    for (int64_t r = 0; r < ny; r++)
        for (int64_t c = 0; c < nx; c++) {
            double d = pdist[(r + 1) * pnx + c + 1];
            dist[r * nx + c] = d < 0.0 ? INFINITY : d;
        }
    free(pdist);
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

/* -- corridor query ----------------------------------------------------------
 *
 * planner.corridor_hit over n lidar ranges: (depth, lateral offset) of the
 * nearest hit less than half_width to the side of the bearing among the rays
 * within half_angle of it, into out[0..1]; (inf, 0.0) when there is none.
 * The rays of the window are visited in ascending index order, as in Python,
 * so ties go to the same ray. Returns int_error of the first window bound that Python's math.floor
 * or math.ceil cannot convert, else 0.
 */
int corridor_hit(const double *ranges, int64_t n, double bearing, double half_angle,
                 double half_width, double *out)
{
    const double two_pi = 2.0 * M_PI;
    double lo = floor((bearing - half_angle) * (double)n / two_pi);
    double hi = ceil((bearing + half_angle) * (double)n / two_pi);
    int error = int_error(lo);
    if (error || (error = int_error(hi)))
        return error;
    /* the window [lo, hi] modulo n: rays l to h, or rays 0 to h and l to
     * n - 1 when it wraps (l > h); fmod is exact, and so are the integral
     * doubles below 2^53 it leaves */
    int64_t l = 0, h = n - 1;
    if (hi - lo + 1.0 < (double)n) {
        lo = fmod(lo, (double)n);
        hi = fmod(hi, (double)n);
        l = (int64_t)(lo < 0.0 ? lo + (double)n : lo);
        h = (int64_t)(hi < 0.0 ? hi + (double)n : hi);
    }
    double depth = INFINITY, lateral = 0.0;
    for (int64_t j = 0; j < n; j++) {
        if (l <= h ? j < l || j > h : j > h && j < l)
            continue;
        double a = two_pi * (double)j / (double)n - bearing;
        if (a > M_PI)
            a -= two_pi;
        else if (a <= -M_PI)
            a += two_pi;
        if (fabs(a) <= half_angle) {
            double r = ranges[j];
            double lat = r * sin(a);
            if (fabs(lat) < half_width) {
                double d = r * cos(a);
                if (d < depth) {
                    depth = d;
                    lateral = lat;
                }
            }
        }
    }
    out[0] = depth;
    out[1] = lateral;
    return 0;
}

/* -- obstacle stamping -------------------------------------------------------
 *
 * The obstacle loop of gridnav.free_space_grid: each obstacle clears the
 * cells of the row-major (ny, nx) raster free_cells whose centres it covers,
 * grown by inflate, within its cell window. Each row of the (n, 9) table is
 * (x, y, reach, cuboid, radius, half_w, half_h, cos yaw, sin yaw), with reach
 * Obstacle.reach and the cosine and sine Python's. Python's int() truncates
 * the window bounds toward zero as the C conversion does; the cover test is
 * Obstacle.covers with numpy's operations in numpy's order. Returns int_error
 * of the first window bound that int() cannot convert, else 0.
 */

/* max(0, int(v) + shift) clamped to n: a window bound past either end of
 * the axis selects the same empty or full range clamped as it does not. */
static int64_t window_bound(double v, double shift, int64_t n)
{
    double b = trunc(v) + shift;
    return b <= 0.0 ? 0 : b >= (double)n ? n : (int64_t)b;
}

int stamp_obstacles(unsigned char *free_cells, int64_t ny, int64_t nx, const double *rows,
                    int64_t n_rows, double minx, double miny, double res, double inflate)
{
    for (int64_t i = 0; i < n_rows; i++) {
        const double *ob = rows + 9 * i;
        double x = ob[0], y = ob[1], reach = ob[2] + inflate;
        double q[4] = {(x - reach - minx) / res, (x + reach - minx) / res,
                       (y - reach - miny) / res, (y + reach - miny) / res};
        for (int k = 0; k < 4; k++) {
            int error = int_error(q[k]);
            if (error)
                return error;
        }
        int64_t c0 = window_bound(q[0], -1.0, nx), c1 = window_bound(q[1], 2.0, nx);
        int64_t r0 = window_bound(q[2], -1.0, ny), r1 = window_bound(q[3], 2.0, ny);
        int cuboid = ob[3] != 0.0;
        double grown = ob[4] + inflate, half_w = ob[5], half_h = ob[6], oc = ob[7], osn = ob[8];
        for (int64_t r = r0; r < r1; r++) {
            double dy = miny + ((double)r + 0.5) * res - y;
            unsigned char *row = free_cells + r * nx;
            for (int64_t c = c0; c < c1; c++) {
                double dx = minx + ((double)c + 0.5) * res - x;
                int covered;
                if (!cuboid) {
                    covered = dx * dx + dy * dy <= grown * grown;
                } else {
                    double lx = dx * oc + dy * osn;
                    double ly = -dx * osn + dy * oc;
                    /* np.maximum(v, 0.0), which keeps a NaN */
                    double ex = fabs(lx) - half_w, ey = fabs(ly) - half_h;
                    ex = ex < 0.0 ? 0.0 : ex;
                    ey = ey < 0.0 ? 0.0 : ey;
                    covered = ex * ex + ey * ey <= inflate * inflate;
                }
                if (covered)
                    row[c] = 0;
            }
        }
    }
    return 0;
}
