/* Union membership of one point, loaded by walkmap.py through ctypes.
 *
 * Each polygon whose closed bbox holds the point gets the even-odd crossing
 * test of geometry.point_in_polygon, written with the same comparisons and the
 * same arithmetic expression, edge by edge in the same direction (a is the
 * previous vertex, b the current one). The file is built with
 * -ffp-contract=off, so every intermediate is the double Python computes and
 * both classify every point alike.
 */
#include <stdint.h>

/* edges: (n_edges, 4) rows (ax, ay, bx, by), grouped by polygon in polygon
 * order; edge_poly: the polygon id of each edge; bboxes: (n_polys, 4) rows
 * (minx, miny, maxx, maxy). Returns 1 when the point lies in some polygon. */
int point_walkable(double x, double y, const double *edges, const int64_t *edge_poly,
                   int64_t n_edges, const double *bboxes, int64_t n_polys)
{
    int64_t first = 0;
    for (int64_t p = 0; p < n_polys; p++) {
        int64_t end = first;
        while (end < n_edges && edge_poly[end] == p)
            end++;
        const double *box = bboxes + 4 * p;
        if (x >= box[0] && x <= box[2] && y >= box[1] && y <= box[3]) {
            int inside = 0;
            for (int64_t k = first; k < end; k++) {
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
        first = end;
    }
    return 0;
}
