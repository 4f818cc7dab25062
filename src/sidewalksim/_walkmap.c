/* Union membership of a point, the lidar raycast that classifies its probes
 * with it, and the obstacles' bounding-disc test; wrapped by _kernels.c, the
 * module _ckernel.py builds, and called from walkmap.py (point_walkable),
 * sensors.py (raycast_loop) and world.py (first_disc_holding).
 *
 * point_walkable gives each polygon whose closed bbox holds the point the
 * even-odd crossing test of geometry.point_in_polygon, written with the same
 * comparisons and the same arithmetic expression, edge by edge in the same
 * direction (a is the previous vertex, b the current one).
 *
 * first_disc_holding is the broad phase of world.collision_check and of the
 * raycast's origin test, with the expressions of the numpy broad phase in
 * world.py.
 *
 * raycast_loop mirrors the numpy path in sensors.py (ray directions,
 * geometry.rays_segments_t, geometry.ray_circle_t, WalkableMap.edges_near and
 * WalkableMap.contains_points) operation for operation. Terms that do not
 * depend on the ray are computed once per call with the same expressions, and
 * a ray skips rectangles it provably misses (RECT_CULL_MARGIN).
 *
 * The file is built with -ffp-contract=off, so no multiply-add is fused and
 * every intermediate is the double Python computes: every kernel returns what
 * its Python path returns, bit for bit.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* The map, as WalkableMap holds it. edges: (n_edges, 4) rows
 * (ax, ay, bx, by), grouped by polygon in polygon order, so polygon p owns
 * rows edge_start[p] to edge_start[p + 1] - 1; bboxes: (n_polys, 4) rows
 * (minx, miny, maxx, maxy). Returns 1 when the point lies in some polygon;
 * NaN or inf coordinates fail every bbox comparison and read 0. */
int point_walkable(double x, double y, const double *edges, const int64_t *edge_start,
                   const double *bboxes, int64_t n_polys)
{
    for (int64_t p = 0; p < n_polys; p++) {
        const double *box = bboxes + 4 * p;
        if (!(x >= box[0] && x <= box[2] && y >= box[1] && y <= box[3]))
            continue;
        int inside = 0;
        for (int64_t k = edge_start[p]; k < edge_start[p + 1]; k++) {
            const double *e = edges + 4 * k;
            double ax = e[0], ay = e[1], bx = e[2], by = e[3];
            if ((ay <= y) != (by <= y)) {
                double t = (y - ay) / (by - ay);
                if (x < ax + t * (bx - ax))
                    inside = !inside;
            }
        }
        if (inside)
            return 1;
    }
    return 0;
}

/* bounds: (n, 3) rows (x, y, reach) of the obstacle tables. Returns the first
 * row i >= start whose disc of radius reach + margin holds the point (x, y),
 * in its interior when closed is 0 and also on its circle otherwise; n when
 * no row does. */
int first_disc_holding(double x, double y, double margin, int64_t closed,
                       const double *bounds, int64_t start, int64_t n)
{
    for (int64_t i = start; i < n; i++) {
        const double *b = bounds + 3 * i;
        double dx = b[0] - x;
        double dy = b[1] - y;
        double d2 = dx * dx + dy * dy;
        double reach = b[2] + margin;
        if (closed ? d2 <= reach * reach : d2 < reach * reach)
            return (int)i;
    }
    return (int)n;
}

/* Ray-independent terms of a segment (x1, y1, x2, y2) seen from the origin. */
struct seg {
    double ex, ey;  /* x2 - x1, y2 - y1 */
    double fx, fy;  /* x1 - ox, y1 - oy */
    double num_t;   /* numerator of the ray parameter */
};

static void seg_terms(struct seg *g, const double *e, double ox, double oy)
{
    g->ex = e[2] - e[0];
    g->ey = e[3] - e[1];
    g->fx = e[0] - ox;
    g->fy = e[1] - oy;
    g->num_t = g->fx * g->ey - g->fy * g->ex;
}

/* Ray parameter of the hit with s in [0, 1], or -1 when there is none. */
static inline double seg_hit(const struct seg *g, double dx, double dy)
{
    double denom = dx * g->ey - dy * g->ex;
    if (denom == 0.0)
        return -1.0;
    double t = g->num_t / denom;
    double s = (g->fx * dy - g->fy * dx) / denom;
    return (0.0 <= s && s <= 1.0 && 0.0 <= t) ? t : -1.0;
}

/* A ray skips a rectangle when its line passes farther than the bounding
 * radius plus this margin from the center. All four sides then lie at least the
 * margin to one side of the line, which keeps the computed s of every side out
 * of [0, 1] for coordinates within about 10 km of the map origin, so the skip
 * never changes a range. */
#define RECT_CULL_MARGIN 1e-4

/* rect_segs holds 4 sides per rectangle; rect_bounds its (x, y, bounding radius);
 * the map arguments are point_walkable's.
 * Returns 0 on success, -1 when scratch memory cannot be allocated. */
int raycast_loop(double ox, double oy, double ch, double sh,
                 const double *units, int64_t n, double max_range,
                 const double *circles, int64_t n_circles,
                 const double *rect_segs, const double *rect_bounds, int64_t n_rect,
                 const double *edges, const int64_t *edge_start,
                 const double *bboxes, int64_t n_polys, double *out)
{
    const double *cb = units;
    const double *sb = units + n;
    int64_t n_edges = edge_start[n_polys];
    double *circ = malloc((size_t)(3 * n_circles + 1) * sizeof(double));
    struct seg *rects = malloc((size_t)(4 * n_rect + 1) * sizeof(struct seg));
    double *rect_q = malloc((size_t)(3 * n_rect + 1) * sizeof(double));
    struct seg *near = malloc((size_t)(n_edges + 1) * sizeof(struct seg));
    double *ts = malloc((size_t)(n_edges + 1) * sizeof(double));
    int status = -1;
    if (!circ || !rects || !rect_q || !near || !ts)
        goto done;

    for (int64_t i = 0; i < n_circles; i++) {
        const double *c3 = circles + 3 * i;
        double fx = ox - c3[0];
        double fy = oy - c3[1];
        circ[3 * i] = fx;
        circ[3 * i + 1] = fy;
        circ[3 * i + 2] = fx * fx + fy * fy - c3[2] * c3[2];
    }
    for (int64_t i = 0; i < n_rect; i++) {
        rect_q[3 * i] = rect_bounds[3 * i] - ox;
        rect_q[3 * i + 1] = rect_bounds[3 * i + 1] - oy;
        rect_q[3 * i + 2] = rect_bounds[3 * i + 2] + RECT_CULL_MARGIN;
    }
    for (int64_t i = 0; i < 4 * n_rect; i++)
        seg_terms(&rects[i], rect_segs + 4 * i, ox, oy);

    /* edges_near: every edge of each polygon whose bbox meets the box of
       half-side max_range around the origin */
    int64_t n_near = 0;
    for (int64_t p = 0; p < n_polys; p++) {
        const double *b = bboxes + 4 * p;
        if (b[0] <= ox + max_range && b[2] >= ox - max_range
            && b[1] <= oy + max_range && b[3] >= oy - max_range)
            for (int64_t i = edge_start[p]; i < edge_start[p + 1]; i++)
                seg_terms(&near[n_near++], edges + 4 * i, ox, oy);
    }

    for (int64_t k = 0; k < n; k++) {
        double dx = ch * cb[k] - sh * sb[k];
        double dy = sh * cb[k] + ch * sb[k];
        double t_cap = max_range;
        for (int64_t i = 0; i < n_circles; i++) {
            double b = circ[3 * i] * dx + circ[3 * i + 1] * dy;
            double c = circ[3 * i + 2];
            if (c <= 0.0) {
                t_cap = 0.0;
                continue;
            }
            double disc = b * b - c;
            if (disc < 0.0)
                continue;
            double t = -b - sqrt(disc);
            if (0.0 <= t && t < t_cap)
                t_cap = t;
        }
        for (int64_t r = 0; r < n_rect; r++) {
            const double *q = rect_q + 3 * r;
            if (fabs(dx * q[1] - dy * q[0]) > q[2])
                continue;
            for (int64_t i = 4 * r; i < 4 * r + 4; i++) {
                double t = seg_hit(&rects[i], dx, dy);
                if (0.0 <= t && t < t_cap)
                    t_cap = t;
            }
        }
        /* collect walkable-boundary crossings within the cap */
        int64_t m = 0;
        for (int64_t j = 0; j < n_near; j++) {
            double t = seg_hit(&near[j], dx, dy);
            if (0.0 <= t && t <= t_cap)
                ts[m++] = t;
        }
        /* insertion sort: crossing counts per ray are tiny */
        for (int64_t i = 1; i < m; i++) {
            double key = ts[i];
            int64_t j = i - 1;
            while (j >= 0 && ts[j] > key) {
                ts[j + 1] = ts[j];
                j--;
            }
            ts[j + 1] = key;
        }
        ts[m] = t_cap;
        /* probe each interval midpoint for union membership */
        double result = t_cap;
        double left = 0.0;
        for (int64_t j = 0; j <= m; j++) {
            double mid = (left + ts[j]) * 0.5;
            if (!point_walkable(ox + mid * dx, oy + mid * dy, edges, edge_start, bboxes,
                                n_polys)) {
                result = left < t_cap ? left : t_cap;
                break;
            }
            left = ts[j];
        }
        out[k] = result;
    }
    status = 0;
done:
    free(circ);
    free(rects);
    free(rect_q);
    free(near);
    free(ts);
    return status;
}
