/*
 * The stage kernel of the maximin backward sweep in robust_thresholds.dp,
 * over K thresholds at once.
 *
 * Stage n of a sweep maps the values V_{n+1}, stored (n_nodes, K) with one
 * lane per threshold, to V_n on a run of rows.  For each row (grid node) i
 * and control u the kernel reads the cells (i, u, s) of every scenario s:
 * corner j of a cell is node base + offsets[j], and its value is the sum
 * V[c0] * w0 + V[c1] * w1 + ... taken corner by corner (a single corner,
 * the nearest node, has weight exactly 1 and is read as it is).  The
 * minimum over the scenarios, then with the stage score, gives q(i, u), and
 * V_n(i) is the maximum of q over the controls.
 *
 * The float operations are those of the numpy reference in the tests:
 *   - minimum(a, b) is np.minimum: a when a < b or a is NaN, else b, so a
 *     tie of 0.0 and -0.0 gives b and NaN propagates;
 *   - the maximum over controls runs in control order with strict >: ties
 *     keep the first control and its value, and NaN, once met, sticks;
 *   - the slack score of lane k is min_l (g_l - c_lk), taken component by
 *     component as dp._slack takes it.
 * The build disables floating-point contraction, so no product-sum fuses.
 *
 * rt_stage returns 0, 1 when a result is NaN (a touched node was never
 * populated), or 2 when a fixed control lies outside the mesh.  rt_lanes
 * returns the count of lanes the kernel runs as one vector on this host.
 */

#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define DISPATCH __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef DISPATCH
#define DISPATCH
#endif

/* Four lanes run as one vector only where such a vector is native: the
   default clone of an x86-64 host without AVX2 would split every operation
   and run slower than lane by lane. */
#if defined(__x86_64__)
#define WIDE_LANES __builtin_cpu_supports("avx2")
#else
#define WIDE_LANES 1
#endif

#define INLINE static inline __attribute__((always_inline))

/* mirrored field for field by dp._Stage */
struct stage {
    const double *V;          /* (n_nodes, K) stage n+1 */
    double *out;              /* (n_nodes, K) stage n, written on the swept rows */
    int32_t *choices;         /* (n_nodes, K) argmax controls, or NULL */
    const intptr_t *base;     /* (n_nodes, n_u, n_w) corner 0 of each cell */
    const double *cw;         /* (n_nodes, n_u, n_w, C) weights; unread for C = 1 */
    const intptr_t *offsets;  /* (C,) corner offsets, offsets[0] = 0 */
    const double *scores;     /* (n_nodes, n_u) score of every lane, or NULL */
    const double *g;          /* (n_nodes, n_u, m) constraints, when scores is NULL */
    const double *c;          /* (m, K) thresholds, when scores is NULL */
    const int32_t *fixed;     /* (n_nodes,) the one control of each row, or NULL */
    const intptr_t *rows;     /* the rows are rows[r0:r1], or r0..r1-1 when NULL */
    intptr_t r0, r1, n_u, n_w, C, K, m;
};

INLINE double minimum(double a, double b)
{
    return (a < b) | (a != a) ? a : b;
}

/* Lane k of the K lanes.  C and NW (scenarios) are constants where
   rt_stage passes constants, so those loops compile to fixed bounds. */
INLINE int run(const struct stage *s, const intptr_t C, const intptr_t NW,
               const intptr_t k)
{
    const double *restrict V = s->V;
    const intptr_t *restrict base = s->base;
    const double *restrict cw = s->cw;
    const intptr_t *restrict offsets = s->offsets;
    const double *restrict scores = s->scores;
    const double *restrict g = s->g;
    const int32_t *restrict fixed = s->fixed;
    const intptr_t *restrict rows = s->rows;
    const intptr_t n_u = s->n_u, m = s->m, K = s->K;
    int flag = 0;
    for (intptr_t t = s->r0; t < s->r1; t++) {
        const intptr_t i = rows ? rows[t] : t;
        intptr_t u0 = 0, u1 = n_u;
        if (fixed) {
            u0 = fixed[i];
            if (u0 < 0 || u0 >= n_u)
                return 2;
            u1 = u0 + 1;
        }
        double best = 0.0;
        int32_t arg = 0;
        for (intptr_t u = u0; u < u1; u++) {
            const intptr_t cell = i * n_u + u;
            const intptr_t *b = base + cell * NW;
            double q = 0.0;
            for (intptr_t sc = 0; sc < NW; sc++) {
                double a = V[b[sc] * K + k];
                if (C > 1) {
                    const double *w = cw + (cell * NW + sc) * C;
                    a = a * w[0];
                    for (intptr_t j = 1; j < C; j++)
                        a = a + V[(b[sc] + offsets[j]) * K + k] * w[j];
                }
                q = sc ? minimum(q, a) : a;
            }
            if (scores) {
                q = minimum(q, scores[cell]);
            } else {
                const double *gc = g + cell * m;
                double slack = gc[0] - s->c[k];
                for (intptr_t l = 1; l < m; l++)
                    slack = minimum(slack, gc[l] - s->c[l * K + k]);
                q = minimum(q, slack);
            }
            if (u == u0 || (q > best) | (q != q)) {
                best = q;
                arg = (int32_t)u;
            }
        }
        s->out[i * K + k] = best;
        flag |= best != best;
        if (s->choices)
            s->choices[i * K + k] = arg;
    }
    return flag;
}

/* L lanes as one vector (GCC and Clang vector extensions), with the
   operations of run lane by lane, written once and instantiated below for
   four lanes and for eight.  DEFINE_VECTOR(L, ENTRY) defines lanes##L and
   mask##L, their helpers, run##L and the entry stage##L, whose storage
   class is ENTRY.  A splat copies its scalar into every lane: adding the
   scalar to a zero vector would turn -0.0 into +0.0.

   run##L: M > 0 gives slack scores of M components, as stage##L passes it
   for the weak front; M = 0 gives s->m components, or the shared scores if
   given.  stage##L compiles the shapes of the fishery (two corners) and of
   the tabular systems (one corner), both with two scenarios, with constant
   loop bounds, and so the weak front's slack of two components. */
#define DEFINE_VECTOR(L, ENTRY)                                                \
typedef double lanes##L __attribute__((vector_size(L * sizeof(double))));      \
typedef int64_t mask##L __attribute__((vector_size(L * sizeof(int64_t))));     \
                                                                               \
INLINE lanes##L load##L(const double *p)                                       \
{                                                                              \
    lanes##L x;                                                                \
    memcpy(&x, p, sizeof x);                                                   \
    return x;                                                                  \
}                                                                              \
                                                                               \
INLINE lanes##L splat##L(double x)                                             \
{                                                                              \
    lanes##L v = {0};                                                          \
    for (int k = 0; k < L; k++)                                                \
        v[k] = x;                                                              \
    return v;                                                                  \
}                                                                              \
                                                                               \
INLINE lanes##L select##L(mask##L t, lanes##L a, lanes##L b)                   \
{                                                                              \
    return (lanes##L)(((mask##L)a & t) | ((mask##L)b & ~t));                   \
}                                                                              \
                                                                               \
INLINE lanes##L minimum##L(lanes##L a, lanes##L b)                             \
{                                                                              \
    return select##L((a < b) | (a != a), a, b);                                \
}                                                                              \
                                                                               \
INLINE int run##L(const struct stage *s, const intptr_t C, const intptr_t NW,  \
                  const intptr_t M)                                            \
{                                                                              \
    const double *restrict V = s->V;                                           \
    double *restrict out = s->out;                                             \
    int32_t *restrict choices = s->choices;                                    \
    const intptr_t *restrict base = s->base;                                   \
    const double *restrict cw = s->cw;                                         \
    const intptr_t *restrict offsets = s->offsets;                             \
    const double *restrict scores = M ? 0 : s->scores;                         \
    const double *restrict g = s->g;                                           \
    const double *restrict c = s->c;                                           \
    const int32_t *restrict fixed = s->fixed;                                  \
    const intptr_t *restrict rows = s->rows;                                   \
    const intptr_t r0 = s->r0, r1 = s->r1, n_u = s->n_u, m = M ? M : s->m;     \
    mask##L flag = {0};                                                        \
    for (intptr_t t = r0; t < r1; t++) {                                       \
        const intptr_t i = rows ? rows[t] : t;                                 \
        intptr_t u0 = 0, u1 = n_u;                                             \
        if (fixed) {                                                           \
            u0 = fixed[i];                                                     \
            if (u0 < 0 || u0 >= n_u)                                           \
                return 2;                                                      \
            u1 = u0 + 1;                                                       \
        }                                                                      \
        lanes##L best = {0};                                                   \
        mask##L arg = {0};                                                     \
        for (intptr_t u = u0; u < u1; u++) {                                   \
            const intptr_t cell = i * n_u + u;                                 \
            const intptr_t *b = base + cell * NW;                              \
            lanes##L q = {0};                                                  \
            for (intptr_t sc = 0; sc < NW; sc++) {                             \
                lanes##L a = load##L(V + b[sc] * L);                           \
                if (C > 1) {                                                   \
                    const double *w = cw + (cell * NW + sc) * C;               \
                    a = a * w[0];                                              \
                    for (intptr_t j = 1; j < C; j++)                           \
                        a = a + load##L(V + (b[sc] + offsets[j]) * L) * w[j];  \
                }                                                              \
                q = sc ? minimum##L(q, a) : a;                                 \
            }                                                                  \
            if (scores) {                                                      \
                q = minimum##L(q, splat##L(scores[cell]));                     \
            } else {                                                           \
                const double *gc = g + cell * m;                               \
                lanes##L slack = gc[0] - load##L(c);                           \
                for (intptr_t l = 1; l < m; l++)                               \
                    slack = minimum##L(slack, gc[l] - load##L(c + l * L));     \
                q = minimum##L(q, slack);                                      \
            }                                                                  \
            const mask##L uu = (mask##L){0} + u;                               \
            if (u == u0) {                                                     \
                best = q;                                                      \
                arg = uu;                                                      \
            } else {                                                           \
                const mask##L up = (q > best) | (q != q);                      \
                best = select##L(up, q, best);                                 \
                arg = (up & uu) | (arg & ~up);                                 \
            }                                                                  \
        }                                                                      \
        memcpy(out + i * L, &best, sizeof best);                               \
        flag |= best != best;                                                  \
        if (choices)                                                           \
            for (int k = 0; k < L; k++)                                        \
                choices[i * L + k] = (int32_t)arg[k];                          \
    }                                                                          \
    int nan = 0;                                                               \
    for (int k = 0; k < L; k++)                                                \
        nan |= flag[k] != 0;                                                   \
    return nan;                                                                \
}                                                                              \
                                                                               \
ENTRY int stage##L(const struct stage *s)                                      \
{                                                                              \
    if (s->n_w == 2 && s->C == 2)                                              \
        return !s->scores && s->m == 2 ? run##L(s, 2, 2, 2) : run##L(s, 2, 2, 0); \
    if (s->n_w == 2 && s->C == 1)                                              \
        return run##L(s, 1, 2, 0);                                             \
    return run##L(s, s->C, s->n_w, 0);                                         \
}

DEFINE_VECTOR(4, INLINE)

/* Eight lanes run as one 512-bit vector, compiled for the four AVX-512
   subsets by a pragma: under target_clones gcc splits 64-byte vectors into
   scalar code.  Clang and other machines get no eight-lane path. */
#if defined(__x86_64__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC target("avx512f,avx512vl,avx512dq,avx512bw")
DEFINE_VECTOR(8, static)
#pragma GCC pop_options
#define EIGHT_LANES 1
#endif

/* The widest batch run as one vector on this host, resolved once at load:
   8 where the eight-lane path is compiled and the host has its four
   AVX-512 subsets, else 4. */
static int lanes = 4;

#ifdef EIGHT_LANES
__attribute__((constructor)) static void detect_lanes(void)
{
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl")
        && __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512bw"))
        lanes = 8;
}
#endif

int rt_lanes(void)
{
    return lanes;
}

/* Eight lanes, where the host has the eight-lane path, and four lanes run
   as one vector, which reads each cell's base and weights once for every
   lane; any other count of lanes runs lane by lane, its common shapes
   compiled with constant loop bounds as in stage##L. */
DISPATCH int rt_stage(const struct stage *s)
{
#ifdef EIGHT_LANES
    if (s->K == 8 && lanes == 8)
        return stage8(s);
#endif
    if (s->K == 4 && WIDE_LANES)
        return stage4(s);
    const int two = s->n_w == 2 && (s->C == 1 || s->C == 2);
    int flag = 0;
    for (intptr_t k = 0; k < s->K; k++) {
        const int f = !two ? run(s, s->C, s->n_w, k)
                      : s->C == 2 ? run(s, 2, 2, k) : run(s, 1, 2, k);
        if (f == 2)
            return 2;
        flag |= f;
    }
    return flag;
}
