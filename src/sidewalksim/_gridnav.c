/* 8-connected grid Dijkstra, loaded by gridnav.py through ctypes.
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
