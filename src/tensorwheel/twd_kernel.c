/* Native single-entry kernel of the tensor wheel model.
 *
 * Built and loaded by twd_core with the system C compiler, without
 * contraction of multiplies and adds into FMAs, so that the update and
 * the PID fold round exactly as numpy's elementwise arithmetic does.
 *
 * shape holds (I, J, K, R1, R2, R3, H1, H2, H3).  An entry's blocks are
 * gathered into one vector p laid out as g (H1,H2,H3), a[:, i]
 * (R3,R1,H1), b[:, j] (R1,R2,H2) and c[:, k] (R2,R3,H3); its partials t
 * share that layout.  The workspace w holds p, t and the three stage
 * products, and for tw_loss the slice norms before them; twd_core sizes
 * it.  Every index is checked by the caller.
 *
 * The ranks are read through RANK(q), q in 3..8: s[q] in the generic
 * build.  A build for one rank tuple defines TW_RANK3 .. TW_RANK8 as its
 * six ranks (-DTW_RANK3=2 ...), so every loop over them has a constant
 * trip count and every stride folds; the arithmetic, and its order, are
 * the same in both.  Such a build ignores s[3..8]: its caller hands it
 * factors of its ranks only.
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

/* L outputs of dots, from o on; inlined, as dots is, so that each call
 * site's constant strides and lane count fold away. */
static inline __attribute__((always_inline)) void lanes(int L, int64_t o, double *out,
                                                        int64_t os, operand x, operand y,
                                                        int64_t nu, int64_t nv)
{
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    for (int64_t u = 0; u < nu; u++)
        for (int64_t v = 0; v < nv; v++) {
            const double *xp = x.p + o * x.o + u * x.u + v * x.v;
            const double *yp = y.p + o * y.o + u * y.u + v * y.v;
            for (int l = 0; l < L; l++)
                acc[l] += xp[l * x.o] * yp[l * y.o];
        }
    for (int l = 0; l < L; l++)
        out[(o + l) * os] = acc[l];
}

/* The kernel's one contraction loop: out[o*os], for o < n, is the sum
 * over u < nu, then v < nv, of x(o, u, v) y(o, u, v), starting from 0.0
 * and adding its terms in that order.  Four outputs are summed per pass,
 * then two, then one, so that their add chains overlap; each output's
 * order, and with it its rounding, is that of one output at a time. */
static inline __attribute__((always_inline)) void dots(int64_t n, double *out, int64_t os,
                                                       operand x, operand y, int64_t nu,
                                                       int64_t nv)
{
    int64_t o = 0;
    for (; o + 4 <= n; o += 4)
        lanes(4, o, out, os, x, y, nu, nv);
    for (; o + 2 <= n; o += 2)
        lanes(2, o, out, os, x, y, nu, nv);
    for (; o < n; o++)
        lanes(1, o, out, os, x, y, nu, nv);
}

/* The reconstruction at p's position: stage 1 into ab[r3,h1,r2,h2], the
 * sum over r1 of a_i[r3,r1,h1] b_j[r1,r2,h2]; stage 2 into
 * t_g[h1,h2,h3], the sum over (r3, r2) of ab[r3,h1,r2,h2] c_k[r2,r3,h3];
 * stage 3, returned, the sum over (h1, h2, h3) of t_g g, in that order. */
static double reconstruct(const int64_t *s, const double *p, double *ab, double *tg)
{
    const int64_t R1 = RANK(3), R2 = RANK(4), R3 = RANK(5);
    const int64_t H1 = RANK(6), H2 = RANK(7), H3 = RANK(8);
    const double *g = p, *ai = g + H1 * H2 * H3, *bj = ai + R3 * R1 * H1,
                 *ck = bj + R1 * R2 * H2;
    double x = 0.0;
    for (int64_t r3 = 0; r3 < R3; r3++)
        for (int64_t h1 = 0; h1 < H1; h1++)
            dots(R2 * H2, ab + (r3 * H1 + h1) * R2 * H2, 1,
                 (operand){ai + r3 * R1 * H1 + h1, 0, H1, 0}, (operand){bj, 1, R2 * H2, 0},
                 R1, 1);
    for (int64_t h1 = 0; h1 < H1; h1++)
        for (int64_t h2 = 0; h2 < H2; h2++)
            dots(H3, tg + (h1 * H2 + h2) * H3, 1,
                 (operand){ab + h1 * R2 * H2 + h2, 0, H1 * R2 * H2, H2},
                 (operand){ck, 1, H3, R3 * H3}, R3, R2);
    for (int64_t q = 0; q < H1 * H2 * H3; q++)
        x += tg[q] * g[q];
    return x;
}

/* The reconstruction at p's position, returned, and its partials, into
 * t; the stages of twd_core.block_partials: r1, then (r3, r2), then the
 * core, with the a, b and c partials from stage 1's product. */
static double partials(const int64_t *s, const double *p, double *t, double *w)
{
    const int64_t R1 = RANK(3), R2 = RANK(4), R3 = RANK(5);
    const int64_t H1 = RANK(6), H2 = RANK(7), H3 = RANK(8);
    const double *g = p, *ai = g + H1 * H2 * H3, *bj = ai + R3 * R1 * H1,
                 *ck = bj + R1 * R2 * H2;
    double *tg = t, *ta = tg + H1 * H2 * H3, *tb = ta + R3 * R1 * H1, *tc = tb + R1 * R2 * H2;
    double *ab = w, *gb = ab + R3 * H1 * R2 * H2, *ca = gb + R1 * R2 * H1 * H3;
    const double x = reconstruct(s, p, ab, tg);
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

/* Reconstruction and partials at (i, j, k); the partials are left in w
 * after p, at w[n] with n the length of p. */
double tw_partials(const int64_t *s, double *g, double *a, double *b, double *c,
                   int64_t i, int64_t j, int64_t k, double *w)
{
    const int64_t n = block_len(s);
    move_blocks(s, g, a, b, c, i, j, k, w, 1);
    return partials(s, w, w + n, w + 2 * n);
}

/* One PID-SGD step on entry id at (i, j, k); hp holds (eta, lam, cp, ci,
 * cd).  With integral NULL it is the plain step, driven by the raw
 * residual.  Returns 1, writing nothing back, when the driving error or
 * an updated value is not finite; the PID state is folded either way. */
int tw_step(const int64_t *s, double *g, double *a, double *b, double *c,
            int64_t i, int64_t j, int64_t k, double value, int64_t id, const double *hp,
            double *integral, double *prev, double *w)
{
    const int64_t n = block_len(s);
    double *p = w, *t = w + n;
    double e = value - tw_partials(s, g, a, b, c, i, j, k, w);
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

/* tw_step over the entries order[0..n_order); returns -1, or the id of
 * the entry whose step diverged, where the epoch stops. */
int64_t tw_epoch(const int64_t *s, double *g, double *a, double *b, double *c,
                 const int64_t *ii, const int64_t *jj, const int64_t *kk, const double *values,
                 const int64_t *order, int64_t n_order, const double *hp,
                 double *integral, double *prev, double *w)
{
    for (int64_t q = 0; q < n_order; q++) {
        const int64_t id = order[q];
        if (tw_step(s, g, a, b, c, ii[id], jj[id], kk[id], values[id], id, hp,
                    integral, prev, w))
            return id;
    }
    return -1;
}

/* Squared Frobenius norm of each of the n slices of a factor laid out as
 * (runs, n, len), into out. */
static void slice_norms(const double *f, int64_t runs, int64_t n, int64_t len, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = 0.0;
    for (int64_t r = 0; r < runs; r++)
        for (int64_t i = 0; i < n; i++, f += len)
            for (int64_t q = 0; q < len; q++)
                out[i] += f[q] * f[q];
}

/* The regularized loss over the n entries (ii, jj, kk, values): the sum
 * of their squared residuals, each reconstruction that of a step at the
 * entry, plus, unless lam is 0, lam times (n |g|^2 + the sum over the
 * entries of the squared norms of the a, b and c slices each touches);
 * pid_sgd.compute_loss's terms.  The slice norms take w's first I + J + K
 * places. */
double tw_loss(const int64_t *s, double *g, double *a, double *b, double *c,
               const int64_t *ii, const int64_t *jj, const int64_t *kk, const double *values,
               int64_t n, double lam, double *w)
{
    const int64_t R1 = RANK(3), R2 = RANK(4), R3 = RANK(5);
    const int64_t H1 = RANK(6), H2 = RANK(7), H3 = RANK(8);
    double *an = w, *bn = an + s[0], *cn = bn + s[1], *p = cn + s[2];
    const int64_t len = block_len(s);
    double squares = 0.0, g_norm = 0.0, sa = 0.0, sb = 0.0, sc = 0.0;
    for (int64_t q = 0; q < n; q++) {
        move_blocks(s, g, a, b, c, ii[q], jj[q], kk[q], p, 1);
        const double r = values[q] - reconstruct(s, p, p + 2 * len, p + len);
        squares += r * r;
    }
    if (lam == 0.0)
        return squares;
    slice_norms(g, 1, 1, H1 * H2 * H3, &g_norm);
    slice_norms(a, R3, s[0], R1 * H1, an);
    slice_norms(b, R1, s[1], R2 * H2, bn);
    slice_norms(c, R2, s[2], R3 * H3, cn);
    for (int64_t q = 0; q < n; q++) {
        sa += an[ii[q]];
        sb += bn[jj[q]];
        sc += cn[kk[q]];
    }
    return squares + lam * ((double)n * g_norm + (sa + sb + sc));
}
