/* The student's Adam update of one float32 parameter array; wrapped by
 * _kernels.c, the module _ckernel.py builds, and called from nets.py
 * (Adam.step).
 *
 * adam_step mirrors the numpy loop of nets._adam_numpy operation for
 * operation: each scalar arrives as the float32 that numpy rounds the Python
 * float to, and every intermediate is rounded to float32 as numpy rounds it.
 * The file is built with -ffp-contract=off, so no multiply-add is fused, and
 * with SSE2 four elements go through one set of instructions, which round each
 * element as the scalar loop does: the kernel returns what the numpy loop
 * returns, bit for bit.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

/* The scalars of one step, in nets.Adam.step's order: beta1, 1 - beta1,
 * beta2, 1 - beta2, the learning rate, the two bias corrections
 * 1 - beta1 ** t and 1 - beta2 ** t, and eps. */
enum { BETA1, ONE_MINUS_BETA1, BETA2, ONE_MINUS_BETA2, LR, B1C, B2C, EPS, N_SCALARS };

/* Whether no item of x is NaN or infinite: x * 0 is a zero for every finite
 * x and NaN otherwise, and a sum of zeros is a zero. */
static int all_finite(const float *x, int64_t n)
{
    int64_t i = 0;
    float acc = 0.0f;
#ifdef __SSE2__
    const __m128 zero = _mm_setzero_ps();
    __m128 acc4 = zero;
    for (; i + 4 <= n; i += 4)
        acc4 = _mm_add_ps(acc4, _mm_mul_ps(_mm_loadu_ps(x + i), zero));
    if (_mm_movemask_ps(_mm_cmpunord_ps(acc4, acc4)))
        return 0;
#endif
    for (; i < n; i++)
        acc += x[i] * 0.0f;
    return acc == acc;
}

/* One Adam step on the n items of p with gradient g and moments m and v:
 *
 *     m = m * beta1 + (1 - beta1) * g
 *     m = m * (|m| >= FLT_MIN)        (a tiny moment becomes a signed zero)
 *     v = v * beta2 + (1 - beta2) * g * g
 *     p = p - lr * (m / b1c) / (sqrt(v / b2c) + eps)
 *
 * Returns 1, or 0 without writing anything when g holds a NaN or an inf. */
int adam_step(float *p, const float *g, float *m, float *v, int64_t n, const float *s)
{
    if (!all_finite(g, n))
        return 0;
    int64_t i = 0;
#ifdef __SSE2__
    const __m128 beta1 = _mm_set1_ps(s[BETA1]), c1 = _mm_set1_ps(s[ONE_MINUS_BETA1]);
    const __m128 beta2 = _mm_set1_ps(s[BETA2]), c2 = _mm_set1_ps(s[ONE_MINUS_BETA2]);
    const __m128 lr = _mm_set1_ps(s[LR]), b1c = _mm_set1_ps(s[B1C]);
    const __m128 b2c = _mm_set1_ps(s[B2C]), eps = _mm_set1_ps(s[EPS]);
    const __m128 sign = _mm_set1_ps(-0.0f), tiny = _mm_set1_ps(FLT_MIN);
    const __m128 one = _mm_set1_ps(1.0f);
    for (; i + 4 <= n; i += 4) {
        __m128 gi = _mm_loadu_ps(g + i);
        __m128 mi = _mm_add_ps(_mm_mul_ps(_mm_loadu_ps(m + i), beta1), _mm_mul_ps(c1, gi));
        mi = _mm_mul_ps(mi, _mm_and_ps(_mm_cmpge_ps(_mm_andnot_ps(sign, mi), tiny), one));
        __m128 vi = _mm_add_ps(_mm_mul_ps(_mm_loadu_ps(v + i), beta2),
                               _mm_mul_ps(_mm_mul_ps(c2, gi), gi));
        __m128 step = _mm_div_ps(_mm_mul_ps(lr, _mm_div_ps(mi, b1c)),
                                 _mm_add_ps(_mm_sqrt_ps(_mm_div_ps(vi, b2c)), eps));
        _mm_storeu_ps(m + i, mi);
        _mm_storeu_ps(v + i, vi);
        _mm_storeu_ps(p + i, _mm_sub_ps(_mm_loadu_ps(p + i), step));
    }
#endif
    for (; i < n; i++) {
        float mi = m[i] * s[BETA1] + s[ONE_MINUS_BETA1] * g[i];
        mi *= fabsf(mi) >= FLT_MIN ? 1.0f : 0.0f;
        float vi = v[i] * s[BETA2] + s[ONE_MINUS_BETA2] * g[i] * g[i];
        m[i] = mi;
        v[i] = vi;
        p[i] -= s[LR] * (mi / s[B1C]) / (sqrtf(vi / s[B2C]) + s[EPS]);
    }
    return 1;
}
