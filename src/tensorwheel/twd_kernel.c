/* Native kernel of the tensor wheel model: the reconstruction and
 * partials at one position (tw_partials), an epoch of PID-SGD steps
 * (tw_epoch), the regularized training loss (tw_loss), and a training
 * epoch in one call (tw_round): its steps, its loss and the validation
 * sum of squared residuals, which the trainer calls once per epoch.
 * Every sum over factor values, the loss's slice norms among them, goes
 * through one loop, dots.
 *
 * Built and loaded by twd_core with the system C compiler, without
 * contraction of multiplies and adds into FMAs, so that the update and
 * the PID fold round exactly as numpy's elementwise arithmetic does; a
 * build for one rank tuple (below) with -mavx2 where the CPU runs AVX2,
 * which packs independent sums into wider registers and rounds the same.
 *
 * shape holds (I, J, K, R1, R2, R3, H1, H2, H3).  A step gathers an
 * entry's blocks into one vector p laid out as g (H1,H2,H3), a[:, i]
 * (R3,R1,H1), b[:, j] (R1,R2,H2) and c[:, k] (R2,R3,H3), updates p and
 * writes it back; its partials t share that layout.  The loss and
 * validation only read the blocks, so tw_loss reconstructs from the
 * factors where they lie and copies nothing.  The workspace w holds p, t
 * and the three stage products, and for tw_loss the slice norms before
 * them; twd_core sizes it.  Every index is checked by the caller.
 *
 * The ranks are read through RANK(q), q in 3..8: s[q] in the generic
 * build.  A build for one rank tuple defines TW_RANK3 .. TW_RANK8 as its
 * six ranks (-DTW_RANK3=2 ...), so every loop over them has a constant
 * trip count and every stride made of ranks alone folds; the arithmetic,
 * and its order, are the same in both.  Such a build ignores s[3..8]: its
 * caller hands it factors of its ranks only.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#ifdef TW_RANK3
#define RANK(q) ((void)s, (int64_t)TW_RANK##q)
#else
#define RANK(q) s[q]
#endif

/* Length of p: the sizes of the four blocks. */
static int64_t block_len(const int64_t *s)
{
    return RANK(6) * RANK(7) * RANK(8) + RANK(5) * RANK(3) * RANK(6)
           + RANK(3) * RANK(4) * RANK(7) + RANK(4) * RANK(5) * RANK(8);
}

/* Copy the blocks position (i, j, k) touches into p, or back from p. */
static void move_blocks(const int64_t *s, double *g, double *a, double *b, double *c,
                        int64_t i, int64_t j, int64_t k, double *p, int gather)
{
    const int64_t R1 = RANK(3), R2 = RANK(4), R3 = RANK(5);
    const int64_t H1 = RANK(6), H2 = RANK(7), H3 = RANK(8);
    double *base[4] = {g, a + i * R1 * H1, b + j * R2 * H2, c + k * R3 * H3};
    const int64_t runs[4] = {1, R3, R1, R2};
    const int64_t len[4] = {H1 * H2 * H3, R1 * H1, R2 * H2, R3 * H3};
    const int64_t stride[4] = {0, s[0] * R1 * H1, s[1] * R2 * H2, s[2] * R3 * H3};
    for (int m = 0; m < 4; m++)
        for (int64_t r = 0; r < runs[m]; r++, p += len[m]) {
            double *x = base[m] + r * stride[m];
            if (gather)
                memcpy(p, x, (size_t)len[m] * sizeof(double));
            else
                memcpy(x, p, (size_t)len[m] * sizeof(double));
        }
}

/* One operand x of dots: its term for output o and summed indices (u, v)
 * is x.p[o*x.o + u*x.u + v*x.v]. */
typedef struct {
    const double *p;
    int64_t o, u, v;
} operand;

/* L outputs of dots, from o on, for L of 1, 2, 4, 8 or 16, in four banks
 * of four accumulators: output o + 4m + l in bank m's place l, bank m
 * touched only where L > 4m.  Inlined, as dots is, so that each call
 * site's constant strides and L fold away, the tests of L among them. */
static inline __attribute__((always_inline)) void lanes(int L, int64_t o, double *out,
                                                        int64_t os, operand x, operand y,
                                                        int64_t nu, int64_t nv)
{
    const int B = L > 4 ? 4 : L;
    double b0[4] = {0.0, 0.0, 0.0, 0.0}, b1[4] = {0.0, 0.0, 0.0, 0.0},
           b2[4] = {0.0, 0.0, 0.0, 0.0}, b3[4] = {0.0, 0.0, 0.0, 0.0};
    for (int64_t u = 0; u < nu; u++)
        for (int64_t v = 0; v < nv; v++) {
            const double *xp = x.p + o * x.o + u * x.u + v * x.v;
            const double *yp = y.p + o * y.o + u * y.u + v * y.v;
            for (int l = 0; l < B; l++) {
                b0[l] += xp[l * x.o] * yp[l * y.o];
                if (L > 4)
                    b1[l] += xp[(l + 4) * x.o] * yp[(l + 4) * y.o];
                if (L > 8)
                    b2[l] += xp[(l + 8) * x.o] * yp[(l + 8) * y.o];
                if (L > 12)
                    b3[l] += xp[(l + 12) * x.o] * yp[(l + 12) * y.o];
            }
        }
    for (int l = 0; l < B; l++) {
        out[(o + l) * os] = b0[l];
        if (L > 4)
            out[(o + l + 4) * os] = b1[l];
        if (L > 8)
            out[(o + l + 8) * os] = b2[l];
        if (L > 12)
            out[(o + l + 12) * os] = b3[l];
    }
}

/* The kernel's one contraction loop: out[o*os], for o < n, is the sum
 * over u < nu, then v < nv, of x(o, u, v) y(o, u, v), starting from 0.0
 * and adding its terms in that order.  Sixteen outputs are summed per
 * pass, then eight, four, two and one: without FMA each output is one
 * serial chain of adds, so the speed is bound by the number of chains in
 * flight.  Each output's order, and with it its rounding, is that of one
 * output at a time.  It sums every stage and partial, the core sum that ends a
 * reconstruction and, with x = y, the loss's slice norms. */
static inline __attribute__((always_inline)) void dots(int64_t n, double *out, int64_t os,
                                                       operand x, operand y, int64_t nu,
                                                       int64_t nv)
{
    int64_t o = 0;
    for (; o + 16 <= n; o += 16)
        lanes(16, o, out, os, x, y, nu, nv);
    for (; o + 8 <= n; o += 8)
        lanes(8, o, out, os, x, y, nu, nv);
    for (; o + 4 <= n; o += 4)
        lanes(4, o, out, os, x, y, nu, nv);
    for (; o + 2 <= n; o += 2)
        lanes(2, o, out, os, x, y, nu, nv);
    for (; o < n; o++)
        lanes(1, o, out, os, x, y, nu, nv);
}

/* The reconstruction from the blocks g, a_i, b_j and c_k: stage 1 into
 * ab[r3,h1,r2,h2], the sum over r1 of a_i[r3,r1,h1] b_j[r1,r2,h2];
 * stage 2 into t_g[h1,h2,h3], the sum over (r3, r2) of ab[r3,h1,r2,h2]
 * c_k[r2,r3,h3]; stage 3, returned, the sum over (h1, h2, h3) of t_g g,
 * in that order.  Each block is read where it lies: a_i's r3 runs are sa
 * apart, b_j's r1 runs sb and c_k's r2 runs sc, and the rest of a run is
 * contiguous, so the blocks may be p's or the factors' own.  ab and tg
 * overlap nothing else it reads or writes, and restrict says so: without
 * it gcc guards each vectorised loop with run-time overlap checks.
 * noinline: gcc then makes one clone per call site.  Inlined, or left to
 * gcc, it changed how the step was inlined (partials was no longer
 * inlined into its caller), and a step at ranks (5,5,5,2,2,2) ran 2-3%
 * slower. */
static __attribute__((noinline)) double reconstruct(const int64_t *s, const double *g,
                                                    const double *ai, const double *bj,
                                                    const double *ck, int64_t sa, int64_t sb,
                                                    int64_t sc, double *restrict ab,
                                                    double *restrict tg)
{
    const int64_t R1 = RANK(3), R2 = RANK(4), R3 = RANK(5);
    const int64_t H1 = RANK(6), H2 = RANK(7), H3 = RANK(8);
    double x;
    for (int64_t r3 = 0; r3 < R3; r3++)
        for (int64_t h1 = 0; h1 < H1; h1++)
            dots(R2 * H2, ab + (r3 * H1 + h1) * R2 * H2, 1,
                 (operand){ai + r3 * sa + h1, 0, H1, 0}, (operand){bj, 1, sb, 0}, R1, 1);
    for (int64_t h1 = 0; h1 < H1; h1++)
        for (int64_t h2 = 0; h2 < H2; h2++)
            dots(H3, tg + (h1 * H2 + h2) * H3, 1,
                 (operand){ab + h1 * R2 * H2 + h2, 0, H1 * R2 * H2, H2},
                 (operand){ck, 1, H3, sc}, R3, R2);
    dots(1, &x, 1, (operand){tg, 0, 0, 1}, (operand){g, 0, 0, 1}, 1, H1 * H2 * H3);
    return x;
}

/* The reconstruction at p's position, returned, and its partials, into
 * t; the stages of twd_core.block_partials: r1, then (r3, r2), then the
 * core, with the a, b and c partials from stage 1's product.  p, t and
 * the stage products in w do not overlap (restrict); a step at ranks
 * (5,5,5,2,2,2) ran ~20% faster once gcc knew it. */
static double partials(const int64_t *s, const double *restrict p, double *restrict t,
                       double *restrict w)
{
    const int64_t R1 = RANK(3), R2 = RANK(4), R3 = RANK(5);
    const int64_t H1 = RANK(6), H2 = RANK(7), H3 = RANK(8);
    const double *g = p, *ai = g + H1 * H2 * H3, *bj = ai + R3 * R1 * H1,
                 *ck = bj + R1 * R2 * H2;
    double *tg = t, *ta = tg + H1 * H2 * H3, *tb = ta + R3 * R1 * H1, *tc = tb + R1 * R2 * H2;
    double *ab = w, *gb = ab + R3 * H1 * R2 * H2, *ca = gb + R1 * R2 * H1 * H3;
    const double x = reconstruct(s, g, ai, bj, ck, R1 * H1, R2 * H2, R3 * H3, ab, tg);
    /* t_c[r2,r3,h3] = sum over (h1, h2) of ab[r3,h1,r2,h2] g[h1,h2,h3] */
    for (int64_t r2 = 0; r2 < R2; r2++)
        for (int64_t h3 = 0; h3 < H3; h3++)
            dots(R3, tc + r2 * R3 * H3 + h3, H3,
                 (operand){ab + r2 * H2, H1 * R2 * H2, R2 * H2, 1},
                 (operand){g + h3, 0, H2 * H3, H3}, H1, H2);
    /* gb[r1,r2,h1,h3] = sum over h2 of b_j[r1,r2,h2] g[h1,h2,h3], then
     * t_a[r3,r1,h1] = sum over (r2, h3) of gb[r1,r2,h1,h3] c_k[r2,r3,h3] */
    for (int64_t h1 = 0; h1 < H1; h1++)
        for (int64_t h3 = 0; h3 < H3; h3++)
            dots(R1 * R2, gb + h1 * H3 + h3, H1 * H3, (operand){bj, H2, 1, 0},
                 (operand){g + h1 * H2 * H3 + h3, 0, H3, 0}, H2, 1);
    for (int64_t r3 = 0; r3 < R3; r3++)
        for (int64_t h1 = 0; h1 < H1; h1++)
            dots(R1, ta + r3 * R1 * H1 + h1, H1,
                 (operand){gb + h1 * H3, R2 * H1 * H3, H1 * H3, 1},
                 (operand){ck + r3 * H3, 0, R3 * H3, 1}, R2, H3);
    /* ca[r2,h3,r1,h1] = sum over r3 of c_k[r2,r3,h3] a_i[r3,r1,h1], then
     * t_b[r1,r2,h2] = sum over (h1, h3) of ca[r2,h3,r1,h1] g[h1,h2,h3] */
    for (int64_t r2 = 0; r2 < R2; r2++)
        for (int64_t h3 = 0; h3 < H3; h3++)
            dots(R1 * H1, ca + (r2 * H3 + h3) * R1 * H1, 1,
                 (operand){ck + r2 * R3 * H3 + h3, 0, H3, 0}, (operand){ai, 1, R1 * H1, 0},
                 R3, 1);
    for (int64_t r1 = 0; r1 < R1; r1++)
        for (int64_t h2 = 0; h2 < H2; h2++)
            dots(R2, tb + r1 * R2 * H2 + h2, H2,
                 (operand){ca + r1 * H1, H3 * R1 * H1, 1, R1 * H1},
                 (operand){g + h2 * H3, 0, H2 * H3, 1}, H1, H3);
    return x;
}

/* Reconstruction and partials at (i, j, k), from its blocks gathered
 * into p = w; the partials are left in w after p, at w[n] with n the
 * length of p.  static, so that the step calls it in the library, not
 * through the PLT as it would an exported function; noinline, so that
 * move_blocks and partials are inlined into it, as they were into the
 * exported one: inlined into the step, it left both out of line, and a
 * step at ranks (2,2,2,2,2,2) ran ~20% slower. */
static __attribute__((noinline)) double gathered_partials(const int64_t *s, double *g,
                                                          double *a, double *b, double *c,
                                                          int64_t i, int64_t j, int64_t k,
                                                          double *w)
{
    const int64_t n = block_len(s);
    move_blocks(s, g, a, b, c, i, j, k, w, 1);
    return partials(s, w, w + n, w + 2 * n);
}

/* gathered_partials, exported. */
double tw_partials(const int64_t *s, double *g, double *a, double *b, double *c,
                   int64_t i, int64_t j, int64_t k, double *w)
{
    return gathered_partials(s, g, a, b, c, i, j, k, w);
}

/* One PID-SGD step on entry id at (i, j, k); hp holds (eta, lam, cp, ci,
 * cd).  With integral NULL it is the plain step, driven by the raw
 * residual.  Returns 1, writing nothing back, when the driving error or
 * an updated value is not finite; the PID state is folded either way. */
static int step(const int64_t *s, double *g, double *a, double *b, double *c,
                int64_t i, int64_t j, int64_t k, double value, int64_t id, const double *hp,
                double *integral, double *prev, double *w)
{
    const int64_t n = block_len(s);
    double *p = w, *t = w + n;
    double e = value - gathered_partials(s, g, a, b, c, i, j, k, w);
    int finite;
    if (integral) {
        const double raw = e, sum = integral[id] + raw;
        integral[id] = sum;
        e = hp[2] * raw + hp[3] * sum + hp[4] * (raw - prev[id]);
        prev[id] = raw;
    }
    finite = isfinite(e);
    for (int64_t q = 0; q < n; q++) {
        p[q] += hp[0] * (e * t[q] - hp[1] * p[q]);
        if (!isfinite(p[q]))
            finite = 0;
    }
    if (!finite)
        return 1;
    move_blocks(s, g, a, b, c, i, j, k, p, 0);
    return 0;
}

/* step over the entries order[0..n_order); returns -1, or the id of
 * the entry whose step diverged, where the epoch stops. */
int64_t tw_epoch(const int64_t *s, double *g, double *a, double *b, double *c,
                 const int64_t *ii, const int64_t *jj, const int64_t *kk, const double *values,
                 const int64_t *order, int64_t n_order, const double *hp,
                 double *integral, double *prev, double *w)
{
    for (int64_t q = 0; q < n_order; q++) {
        const int64_t id = order[q];
        if (step(s, g, a, b, c, ii[id], jj[id], kk[id], values[id], id, hp,
                 integral, prev, w))
            return id;
    }
    return -1;
}

/* The regularized loss over the n entries (ii, jj, kk, values): the sum
 * of their squared residuals, each reconstruction that of a step at the
 * entry, plus l2, lam times (n |g|^2 + the sum over the entries of the
 * squared norms of the a, b and c slices each touches), or 0.0 where lam
 * is 0, which leaves the sum as it is; pid_sgd.compute_loss's terms.  A
 * factor laid out as (runs, slices, len) has its slice norms summed by
 * dots over (run, rest of the slice), into w's first I + J + K places; g
 * is one slice of one run.  l2 is taken before the residuals, so that
 * the norms are not live across their loop: at ranks (2,2,2,2,2,2) that
 * loop ran ~4% slower when they were.  Each reconstruction reads a_i, b_j
 * and c_k in the factors, their runs s[0] R1 H1, s[1] R2 H2 and s[2] R3 H3
 * apart, and its stage products follow the norms in w.  The step keeps
 * its gather: in place, b_j's r1 runs are not R2 H2 apart, so gb's R1 R2
 * outputs would no longer be one pass of dots but R1 passes of R2, and a
 * step that read in place was not reliably faster. */
double tw_loss(const int64_t *s, double *g, double *a, double *b, double *c,
               const int64_t *ii, const int64_t *jj, const int64_t *kk, const double *values,
               int64_t n, double lam, double *w)
{
    const int64_t R1 = RANK(3), R2 = RANK(4), R3 = RANK(5);
    const int64_t H1 = RANK(6), H2 = RANK(7), H3 = RANK(8);
    double *an = w, *bn = an + s[0], *cn = bn + s[1], *tg = cn + s[2], *ab = tg + H1 * H2 * H3;
    double squares = 0.0, l2 = 0.0, g_norm, sa = 0.0, sb = 0.0, sc = 0.0;
    if (lam != 0.0) {
        const operand xg = {g, 0, 0, 1}, xa = {a, R1 * H1, s[0] * R1 * H1, 1},
                      xb = {b, R2 * H2, s[1] * R2 * H2, 1}, xc = {c, R3 * H3, s[2] * R3 * H3, 1};
        dots(1, &g_norm, 1, xg, xg, 1, H1 * H2 * H3);
        dots(s[0], an, 1, xa, xa, R3, R1 * H1);
        dots(s[1], bn, 1, xb, xb, R1, R2 * H2);
        dots(s[2], cn, 1, xc, xc, R2, R3 * H3);
        for (int64_t q = 0; q < n; q++) {
            sa += an[ii[q]];
            sb += bn[jj[q]];
            sc += cn[kk[q]];
        }
        l2 = lam * ((double)n * g_norm + (sa + sb + sc));
    }
    for (int64_t q = 0; q < n; q++) {
        const double r = values[q] - reconstruct(s, g, a + ii[q] * R1 * H1, b + jj[q] * R2 * H2,
                                                 c + kk[q] * R3 * H3, s[0] * R1 * H1,
                                                 s[1] * R2 * H2, s[2] * R3 * H3, ab, tg);
        squares += r * r;
    }
    return squares + l2;
}

/* tw_epoch and tw_loss under hidden names, so that tw_round calls them in
 * the library and not through the PLT; aliases, not wrappers of a static
 * body, so that neither export's machine code changes. */
extern __typeof(tw_epoch) epoch_here __attribute__((alias("tw_epoch"), visibility("hidden")));
extern __typeof(tw_loss) loss_here __attribute__((alias("tw_loss"), visibility("hidden")));

/* tw_round's arguments that stay the same from one epoch to the next,
 * bound once per training run: the factors, the n training entries, the
 * gains and PID state of tw_epoch, the n_valid validation entries, the
 * two sums' place out and the workspace.  twd_core._Bound lists the same
 * fields in the same order. */
typedef struct {
    const int64_t *s;
    double *g, *a, *b, *c;
    const int64_t *ii, *jj, *kk;
    const double *values;
    int64_t n;
    const double *hp;
    double *integral, *prev;
    const int64_t *vi, *vj, *vk;
    const double *vv;
    int64_t n_valid;
    double *out, *w;
} bound;

/* One training epoch in one call: tw_epoch over order[0..n_order) of the
 * training entries, then tw_loss of those at hp[1] into out[0], and
 * tw_loss with lam 0 of the validation entries, their sum of squared
 * residuals, into out[1].  Returns -2, before any step, where an id of
 * the order lies outside [0, n); the id of the entry whose step diverged,
 * with out unwritten; else -1. */
int64_t tw_round(const bound *x, const int64_t *order, int64_t n_order)
{
    int64_t diverged;
    for (int64_t q = 0; q < n_order; q++)
        if (order[q] < 0 || order[q] >= x->n)
            return -2;
    diverged = epoch_here(x->s, x->g, x->a, x->b, x->c, x->ii, x->jj, x->kk, x->values, order,
                          n_order, x->hp, x->integral, x->prev, x->w);
    if (diverged >= 0)
        return diverged;
    x->out[0] = loss_here(x->s, x->g, x->a, x->b, x->c, x->ii, x->jj, x->kk, x->values, x->n,
                          x->hp[1], x->w);
    x->out[1] = loss_here(x->s, x->g, x->a, x->b, x->c, x->vi, x->vj, x->vk, x->vv, x->n_valid,
                          0.0, x->w);
    return -1;
}
