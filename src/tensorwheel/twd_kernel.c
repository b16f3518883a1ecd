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
 * products; twd_core sizes it.  Every index is checked by the caller.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* Length of p: the sizes of the four blocks. */
static int64_t block_len(const int64_t *s)
{
    return s[6] * s[7] * s[8] + s[5] * s[3] * s[6] + s[3] * s[4] * s[7] + s[4] * s[5] * s[8];
}

/* Copy the blocks position (i, j, k) touches into p, or back from p. */
static void move_blocks(const int64_t *s, double *g, double *a, double *b, double *c,
                        int64_t i, int64_t j, int64_t k, double *p, int gather)
{
    const int64_t R1 = s[3], R2 = s[4], R3 = s[5], H1 = s[6], H2 = s[7], H3 = s[8];
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

/* The reconstruction at p's position, returned, and its partials, into
 * t; the stages of twd_core.block_partials: r1, then (r3, r2), then the
 * core, with the a, b and c partials from stage 1's product. */
static double partials(const int64_t *s, const double *p, double *t, double *w)
{
    const int64_t R1 = s[3], R2 = s[4], R3 = s[5], H1 = s[6], H2 = s[7], H3 = s[8];
    const double *g = p, *ai = g + H1 * H2 * H3, *bj = ai + R3 * R1 * H1,
                 *ck = bj + R1 * R2 * H2;
    double *tg = t, *ta = tg + H1 * H2 * H3, *tb = ta + R3 * R1 * H1, *tc = tb + R1 * R2 * H2;
    double *ab = w, *gb = ab + R3 * H1 * R2 * H2, *ca = gb + R1 * R2 * H1 * H3;
    double x = 0.0;
    /* stage 1: ab[r3,h1,r2,h2] = sum over r1 of a_i[r3,r1,h1] b_j[r1,r2,h2] */
    for (int64_t r3 = 0; r3 < R3; r3++)
        for (int64_t h1 = 0; h1 < H1; h1++)
            for (int64_t q = 0; q < R2 * H2; q++) {
                double acc = 0.0;
                for (int64_t r1 = 0; r1 < R1; r1++)
                    acc += ai[(r3 * R1 + r1) * H1 + h1] * bj[r1 * R2 * H2 + q];
                ab[(r3 * H1 + h1) * R2 * H2 + q] = acc;
            }
    /* stage 2: t_g[h1,h2,h3] = sum over (r3, r2) of ab[r3,h1,r2,h2] c_k[r2,r3,h3];
     * stage 3: x = sum over (h1, h2, h3) of t_g g, in the same order */
    for (int64_t h1 = 0; h1 < H1; h1++)
        for (int64_t h2 = 0; h2 < H2; h2++)
            for (int64_t h3 = 0; h3 < H3; h3++) {
                double acc = 0.0;
                for (int64_t r3 = 0; r3 < R3; r3++)
                    for (int64_t r2 = 0; r2 < R2; r2++)
                        acc += ab[((r3 * H1 + h1) * R2 + r2) * H2 + h2]
                               * ck[(r2 * R3 + r3) * H3 + h3];
                tg[(h1 * H2 + h2) * H3 + h3] = acc;
                x += acc * g[(h1 * H2 + h2) * H3 + h3];
            }
    /* t_c[r2,r3,h3] = sum over (h1, h2) of ab[r3,h1,r2,h2] g[h1,h2,h3] */
    for (int64_t r2 = 0; r2 < R2; r2++)
        for (int64_t r3 = 0; r3 < R3; r3++)
            for (int64_t h3 = 0; h3 < H3; h3++) {
                double acc = 0.0;
                for (int64_t h1 = 0; h1 < H1; h1++)
                    for (int64_t h2 = 0; h2 < H2; h2++)
                        acc += ab[((r3 * H1 + h1) * R2 + r2) * H2 + h2]
                               * g[(h1 * H2 + h2) * H3 + h3];
                tc[(r2 * R3 + r3) * H3 + h3] = acc;
            }
    /* gb[r1,r2,h1,h3] = sum over h2 of b_j[r1,r2,h2] g[h1,h2,h3], then
     * t_a[r3,r1,h1] = sum over (r2, h3) of gb[r1,r2,h1,h3] c_k[r2,r3,h3] */
    for (int64_t q = 0; q < R1 * R2; q++)
        for (int64_t h1 = 0; h1 < H1; h1++)
            for (int64_t h3 = 0; h3 < H3; h3++) {
                double acc = 0.0;
                for (int64_t h2 = 0; h2 < H2; h2++)
                    acc += bj[q * H2 + h2] * g[(h1 * H2 + h2) * H3 + h3];
                gb[(q * H1 + h1) * H3 + h3] = acc;
            }
    for (int64_t r3 = 0; r3 < R3; r3++)
        for (int64_t r1 = 0; r1 < R1; r1++)
            for (int64_t h1 = 0; h1 < H1; h1++) {
                double acc = 0.0;
                for (int64_t r2 = 0; r2 < R2; r2++)
                    for (int64_t h3 = 0; h3 < H3; h3++)
                        acc += gb[((r1 * R2 + r2) * H1 + h1) * H3 + h3]
                               * ck[(r2 * R3 + r3) * H3 + h3];
                ta[(r3 * R1 + r1) * H1 + h1] = acc;
            }
    /* ca[r2,h3,r1,h1] = sum over r3 of c_k[r2,r3,h3] a_i[r3,r1,h1], then
     * t_b[r1,r2,h2] = sum over (h1, h3) of ca[r2,h3,r1,h1] g[h1,h2,h3] */
    for (int64_t r2 = 0; r2 < R2; r2++)
        for (int64_t h3 = 0; h3 < H3; h3++)
            for (int64_t q = 0; q < R1 * H1; q++) {
                double acc = 0.0;
                for (int64_t r3 = 0; r3 < R3; r3++)
                    acc += ck[(r2 * R3 + r3) * H3 + h3] * ai[r3 * R1 * H1 + q];
                ca[(r2 * H3 + h3) * R1 * H1 + q] = acc;
            }
    for (int64_t r1 = 0; r1 < R1; r1++)
        for (int64_t r2 = 0; r2 < R2; r2++)
            for (int64_t h2 = 0; h2 < H2; h2++) {
                double acc = 0.0;
                for (int64_t h1 = 0; h1 < H1; h1++)
                    for (int64_t h3 = 0; h3 < H3; h3++)
                        acc += ca[((r2 * H3 + h3) * R1 + r1) * H1 + h1]
                               * g[(h1 * H2 + h2) * H3 + h3];
                tb[(r1 * R2 + r2) * H2 + h2] = acc;
            }
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
            double *integral, double *prev, int64_t *visits, double *w)
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
        visits[id] += 1;
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
                 double *integral, double *prev, int64_t *visits, double *w)
{
    for (int64_t q = 0; q < n_order; q++) {
        const int64_t id = order[q];
        if (tw_step(s, g, a, b, c, ii[id], jj[id], kk[id], values[id], id, hp,
                    integral, prev, visits, w))
            return id;
    }
    return -1;
}
