/* One chunk of the lock-step RK4 loop of cohstab.dynamics._integrate, for
 * an RHS of one of two kinds: a plan, one fused bilinear plan
 * (kernel.bilinear) plus the post-ops of the fermion Schrödinger evolution
 * and the Grassmann law; or the ladder of the boson Schrödinger evolution.
 *
 * Per grid step it does what the numpy loop does, op for op: the dt step on
 * pair[0], then the two dt/2 substeps on pair[1], each a classical RK4 step
 * whose stages evaluate, for a plan,
 *   - the plan: per target, its pairs' products summed from +0.0 in pair
 *     order, each product p*c - q*d, p*d + q*c with p, q the signed parts of
 *     the state's coefficient and c, d those of the coefficient row's;
 *   - out[r] *= -1j on the leading turn_rows rows (-1j is (-0.0, -1.0));
 *   - with a law at rows law_row, law_row + 1 (zeta, phi):
 *     zeta = omega * zeta, zeta[eta_mask] -= eta, zeta *= -1j,
 *     phi *= 0.5, phi[delta_mask] -= delta;
 * and for the ladder, per level n of the dim levels, with (g, fc, f, w) the
 * coefficient row,
 *     out[n] = -1j * (((w * (n * y[n]) + f * up[n]) + fc * down[n]) + g * y[n]),
 *     up[n] = sq[n - 1] * y[n - 1], down[n] = sq[n] * y[n + 1],
 *   with up[0] and down[dim - 1] +0.0 and still multiplied by f and fc;
 * then the update y + (dt/6) * ((k1 + 2 * (k2 + k3)) + k4), after which a
 * recorded grid step copies pair[0] out.
 *
 * Every complex multiply is numpy's, in numpy's operand order (the ladder's
 * -1j is the left operand, the plan's the right), with a real or integer
 * operand widened to (x, +0.0). The _fma entry points spell it as numpy's
 * AVX2/AVX-512 loops do, re = fma(ar, br, -(ai*bi)), im = fma(ar, bi,
 * ai*br); the _plain ones as its baseline loops, with plain products. The
 * Python side picks the one numpy matches. Build with -O2 -ffp-contract=off
 * and no fast-math, so that nothing else contracts or reassociates, and
 * without vectorizing (see compiled.FLAGS).
 *
 * No bounds are checked here: the caller checks every array's dtype,
 * contiguity and shape, and the plan's indices and the ladder's size once
 * per program.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

typedef struct {
    double re, im;
} cplx; /* numpy's complex128 layout */

typedef struct {
    int64_t rows;     /* state rows; the plan's out has as many */
    int64_t dim;      /* coefficients per row */
    int64_t n_pairs;
    const int64_t *left;   /* per pair: state index row * dim + mask */
    const int64_t *right;  /* per pair: coefficient slot 0..3 */
    const int64_t *target; /* per pair: out index row * dim + mask */
    const double *re_sign;
    const double *im_sign;
    int64_t turn_rows;  /* leading rows multiplied by -1j */
    int64_t law_row;    /* zeta's row, or -1 without a law */
    int64_t eta_mask;   /* where zeta' takes -eta */
    int64_t delta_mask; /* where phi' takes -delta */
    const double *sq;   /* the ladder's dim - 1 values sqrt(1 .. dim - 1) */
} program;

#define SLOTS 4 /* a coefficient row: delta (I), lower, eta (raise), omega */

static inline __attribute__((always_inline)) cplx
cmul(cplx a, cplx b, int fused)
{
    cplx z;
    if (fused) {
        z.re = fma(a.re, b.re, -(a.im * b.im));
        z.im = fma(a.re, b.im, a.im * b.re);
    } else {
        z.re = a.re * b.re - a.im * b.im;
        z.im = a.re * b.im + a.im * b.re;
    }
    return z;
}

static inline __attribute__((always_inline)) cplx
real(double x)
{
    cplx z = {x, 0.0};
    return z;
}

static inline __attribute__((always_inline)) cplx
add(cplx a, cplx b)
{
    cplx z = {a.re + b.re, a.im + b.im};
    return z;
}

static inline __attribute__((always_inline)) void
plan_rhs(const program *p, const cplx *c, const cplx *y, cplx *out, int fused)
{
    const int64_t n = p->rows * p->dim;
    const cplx turn = {-0.0, -1.0};
    for (int64_t i = 0; i < n; i++)
        out[i] = real(0.0);
    for (int64_t k = 0; k < p->n_pairs; k++) {
        const cplx a = y[p->left[k]], b = c[p->right[k]];
        const double s = p->re_sign[k] * a.re, q = p->im_sign[k] * a.im;
        out[p->target[k]].re += s * b.re - q * b.im;
        out[p->target[k]].im += s * b.im + q * b.re;
    }
    for (int64_t i = 0; i < p->turn_rows * p->dim; i++)
        out[i] = cmul(out[i], turn, fused);
    if (p->law_row < 0)
        return;
    cplx *zeta = out + p->law_row * p->dim, *phi = zeta + p->dim;
    const cplx *y_zeta = y + p->law_row * p->dim;
    for (int64_t m = 0; m < p->dim; m++)
        zeta[m] = cmul(c[3], y_zeta[m], fused);
    zeta[p->eta_mask].re -= c[2].re;
    zeta[p->eta_mask].im -= c[2].im;
    for (int64_t m = 0; m < p->dim; m++)
        zeta[m] = cmul(zeta[m], turn, fused);
    for (int64_t m = 0; m < p->dim; m++)
        phi[m] = cmul(phi[m], real(0.5), fused);
    phi[p->delta_mask].re -= c[0].re;
    phi[p->delta_mask].im -= c[0].im;
}

static inline __attribute__((always_inline)) void
ladder_rhs(const program *p, const cplx *c, const cplx *y, cplx *out, int fused)
{
    const int64_t top = p->dim - 1;
    const cplx g = c[0], fc = c[1], f = c[2], w = c[3];
    const cplx turn = {-0.0, -1.0};
    for (int64_t n = 0; n <= top; n++) {
        const cplx up = n > 0 ? cmul(real(p->sq[n - 1]), y[n - 1], fused) : real(0.0);
        const cplx down = n < top ? cmul(real(p->sq[n]), y[n + 1], fused) : real(0.0);
        cplx sum = cmul(w, cmul(real((double)n), y[n], fused), fused);
        sum = add(sum, cmul(f, up, fused));
        sum = add(sum, cmul(fc, down, fused));
        sum = add(sum, cmul(g, y[n], fused));
        out[n] = cmul(turn, sum, fused);
    }
}

/* is_ladder is a compile-time constant of each entry point, so neither
 * kind's inner loop branches on it. */
static inline __attribute__((always_inline)) void
rhs(const program *p, const cplx *c, const cplx *y, cplx *out, int fused, int is_ladder)
{
    if (is_ladder)
        ladder_rhs(p, c, y, out, fused);
    else
        plan_rhs(p, c, y, out, fused);
}

/* One RK4 step of y by dt with coefficient rows c0, c_mid, c_next; work
 * holds five states. */
static inline __attribute__((always_inline)) void
rk4_step(const program *p, cplx *y, const cplx *c0, const cplx *c_mid,
         const cplx *c_next, double dt, cplx *work, int fused, int is_ladder)
{
    const int64_t n = p->rows * p->dim;
    cplx *k1 = work, *k2 = k1 + n, *k3 = k2 + n, *k4 = k3 + n, *t = k4 + n;
    const double half = 0.5 * dt, sixth = dt / 6.0;
    rhs(p, c0, y, k1, fused, is_ladder);
    for (int64_t i = 0; i < n; i++)
        t[i] = add(y[i], cmul(real(half), k1[i], fused));
    rhs(p, c_mid, t, k2, fused, is_ladder);
    for (int64_t i = 0; i < n; i++)
        t[i] = add(y[i], cmul(real(half), k2[i], fused));
    rhs(p, c_mid, t, k3, fused, is_ladder);
    for (int64_t i = 0; i < n; i++)
        t[i] = add(y[i], cmul(real(dt), k3[i], fused));
    rhs(p, c_next, t, k4, fused, is_ladder);
    for (int64_t i = 0; i < n; i++) {
        const cplx sum = add(add(k1[i], cmul(real(2.0), add(k2[i], k3[i]), fused)), k4[i]);
        y[i] = add(y[i], cmul(real(sixth), sum, fused));
    }
}

/* `steps` grid steps: table holds each step's 8 stage rows in the column
 * order of dynamics._stage_times, dts its 3 steps (dt run, two dt/2
 * substeps). pair holds the dt run's state, then the dt/2 run's. After
 * step j the dt run's state is copied to rec_out[r] if rec_step[r] == j + 1,
 * for ascending rec_step. work holds five states. */
static inline __attribute__((always_inline)) void
chunk(const program *p, int64_t steps, const cplx *table, const double *dts,
      cplx *pair, int64_t n_rec, const int64_t *rec_step, cplx *rec_out,
      cplx *work, int fused, int is_ladder)
{
    const int64_t n = p->rows * p->dim;
    cplx *full = pair, *halved = pair + n;
    int64_t r = 0;
    for (int64_t j = 0; j < steps; j++) {
        const cplx *c = table + j * 8 * SLOTS;
        const double *dt = dts + j * 3;
        rk4_step(p, full, c, c + 2 * SLOTS, c + 4 * SLOTS, dt[0], work, fused, is_ladder);
        rk4_step(p, halved, c + 1 * SLOTS, c + 3 * SLOTS, c + 5 * SLOTS, dt[1], work, fused,
                 is_ladder);
        rk4_step(p, halved, c + 5 * SLOTS, c + 6 * SLOTS, c + 7 * SLOTS, dt[2], work, fused,
                 is_ladder);
        if (r < n_rec && rec_step[r] == j + 1) {
            memcpy(rec_out + r * n, full, n * sizeof(cplx));
            r++;
        }
    }
}

/* The chunk entry points, one per RHS kind and spelling. */
#define ENTRY(name, attr, fused, is_ladder)                                     \
    attr void name(const program *p, int64_t steps, const cplx *table,          \
                   const double *dts, cplx *pair, int64_t n_rec,                \
                   const int64_t *rec_step, cplx *rec_out, cplx *work)          \
    {                                                                           \
        chunk(p, steps, table, dts, pair, n_rec, rec_step, rec_out, work, fused, \
              is_ladder);                                                       \
    }
ENTRY(cohstab_rk4_chunk_plain, , 0, 0)
ENTRY(cohstab_rk4_chunk_fma, __attribute__((target("fma"))), 1, 0)
ENTRY(cohstab_rk4_ladder_plain, , 0, 1)
ENTRY(cohstab_rk4_ladder_fma, __attribute__((target("fma"))), 1, 1)

/* out[i] = a[i] * b[i] in each spelling, to tell which one numpy uses. */
void
cohstab_cmul_plain(int64_t n, const cplx *a, const cplx *b, cplx *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = cmul(a[i], b[i], 0);
}

__attribute__((target("fma"))) void
cohstab_cmul_fma(int64_t n, const cplx *a, const cplx *b, cplx *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = cmul(a[i], b[i], 1);
}

/* Whether this CPU runs the _fma entry points. */
int
cohstab_has_fma(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("fma");
}
