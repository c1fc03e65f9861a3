/* One block of grid steps of the lock-step RK4 loop of
 * cohstab.dynamics._integrate, for an RHS of one of two kinds: a plan, one
 * fused bilinear plan (kernel.bilinear) plus the post-ops of the fermion
 * Schrödinger evolution and the Grassmann law; or the ladder of the boson
 * Schrödinger evolution. Then the graded product of kernel.multiply
 * (cohstab_multiply), which has no complex multiply, so it needs no
 * spelling. And, at the end, the trajectory CSV's text (cohstab_format_rows):
 * each float64 as Python's repr writes it, by Schubfach's shortest digits,
 * compiled only where gcc has 128-bit integers.
 *
 * Per grid step it does what the numpy loop does, op for op: the dt step on
 * pair[0], then on pair[1] the two dt/2 substeps that split it at its
 * midpoint, each a classical RK4 step whose stages evaluate, for a plan,
 *   - the plan: per target, its pairs' products summed from +0.0 in pair
 *     order, each product p*c - q*d, p*d + q*c with p, q the signed parts of
 *     the state's coefficient and c, d those of the coefficient row's;
 *   - out[r] *= -1j on the leading turn_rows rows (-1j is (-0.0, -1.0));
 *   - with a law (eta_mask >= 0), on rows turn_rows, turn_rows + 1 (zeta, phi):
 *     zeta = omega * zeta, zeta[eta_mask] -= eta, zeta *= -1j,
 *     phi *= 0.5, phi[0] -= delta (delta is a c-number, at the body);
 * and for the ladder, per level n of the dim levels, with (g, fc, f, w) the
 * coefficient row,
 *     out[n] = -1j * (((w * (n * y[n]) + f * up[n]) + fc * down[n]) + g * y[n]),
 *     up[n] = sq[n - 1] * y[n - 1], down[n] = sq[n] * y[n + 1],
 *   with up[0] and down[dim - 1] +0.0 and still multiplied by f and fc;
 * then the update y + (dt/6) * ((k1 + 2 * (k2 + k3)) + k4). After each grid
 * step the dt run's state is copied to the block of states.
 *
 * Every complex multiply is numpy's, in numpy's operand order (the ladder's
 * -1j is the left operand, the plan's the right), with a real or integer
 * operand widened to (x, +0.0). The _fma entry points spell it as numpy's
 * AVX2/AVX-512 loops do, re = fma(ar, br, -(ai*bi)), im = fma(ar, bi,
 * ai*br); the _plain ones as its baseline loops, with plain products. The
 * Python side picks the one numpy matches. Build with -O2 -ffp-contract=off
 * and no fast-math, so that nothing else contracts or reassociates, and
 * without gcc's own vectorizing (see compiled.FLAGS).
 *
 * The fused ladder entry alone runs two levels per 256-bit register, in its
 * ladder RHS and its RK4 update loops; level 0, level dim - 1 and an odd
 * level left over run the scalar code. That keeps every bit: each lane runs
 * cmul's IEEE ops in cmul's order (wide_cmul) and add's adds, and nothing
 * else; -ffp-contract=off keeps a vector mul and add unfused as it does
 * scalar ones; and nothing here sets FTZ or DAZ, so subnormals stay as they
 * are in both.
 *
 * No bounds are checked here: the caller checks every array's dtype,
 * contiguity and shape, and the plan's indices and the ladder's size once
 * per program; kernel.multiply checks the product's operands and n_gen.
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
    int64_t turn_rows; /* leading rows multiplied by -1j; the law's rows follow */
    int64_t eta_mask;  /* where zeta' takes -eta, or -1 without a law */
    const cplx *sq;    /* the ladder's dim - 1 factors (sqrt(1 .. dim - 1), +0.0) */
    const cplx *level; /* and its dim factors (0 .. dim - 1, +0.0) */
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
    const int64_t turned = p->turn_rows * p->dim;
    for (int64_t i = 0; i < turned; i++)
        out[i] = cmul(out[i], turn, fused);
    if (p->eta_mask < 0)
        return;
    cplx *zeta = out + turned, *phi = zeta + p->dim;
    const cplx *y_zeta = y + turned;
    for (int64_t m = 0; m < p->dim; m++)
        zeta[m] = cmul(c[3], y_zeta[m], fused);
    zeta[p->eta_mask].re -= c[2].re;
    zeta[p->eta_mask].im -= c[2].im;
    for (int64_t m = 0; m < p->dim; m++)
        zeta[m] = cmul(zeta[m], turn, fused);
    for (int64_t m = 0; m < p->dim; m++)
        phi[m] = cmul(phi[m], real(0.5), fused);
    phi[0].re -= c[0].re;
    phi[0].im -= c[0].im;
}

/* out[n] of the ladder, for any level n */
static inline __attribute__((always_inline)) cplx
ladder_level(const program *p, const cplx *c, const cplx *y, int64_t n, int fused)
{
    const cplx turn = {-0.0, -1.0};
    const cplx up = n > 0 ? cmul(p->sq[n - 1], y[n - 1], fused) : real(0.0);
    const cplx down = n < p->dim - 1 ? cmul(p->sq[n], y[n + 1], fused) : real(0.0);
    cplx sum = cmul(c[3], cmul(p->level[n], y[n], fused), fused);
    sum = add(sum, cmul(c[2], up, fused));
    sum = add(sum, cmul(c[1], down, fused));
    sum = add(sum, cmul(c[0], y[n], fused));
    return cmul(turn, sum, fused);
}

/* Two complex values per 256-bit register (cplx2), for the fused ladder
 * entry only: its target and flatten attributes inline these into it, and
 * gcc inlines no WIDE function into a default-target one. PAIR(x) is x[0]
 * and x[1], BOTH(z) z twice. */
#define WIDE static inline __attribute__((target("avx,fma")))
typedef double cplx2 __attribute__((vector_size(32), aligned(8), may_alias));
typedef int64_t lanes __attribute__((vector_size(32)));
#define PAIR(x) (*(cplx2 *)(x))
#define BOTH(z) ((cplx2){(z).re, (z).im, (z).re, (z).im})

/* cmul(a, b, 1) on each lane: t = (ai*bi, ai*br), then fmaddsub(ar, b, t)
 * is (fma(ar, br, -(ai*bi)), fma(ar, bi, ai*br)) */
WIDE cplx2
wide_cmul(cplx2 a, cplx2 b)
{
    const cplx2 t = __builtin_shuffle(a, (lanes){1, 1, 3, 3}) *
                    __builtin_shuffle(b, (lanes){1, 0, 3, 2});
    return __builtin_ia32_vfmaddsubpd256(__builtin_shuffle(a, (lanes){0, 0, 2, 2}), b, t);
}

/* The ladder's levels 1, 2, ... two at a time while both are below
 * dim - 1; returns the first level left. */
WIDE int64_t
wide_levels(const program *p, const cplx *c, const cplx *y, cplx *out)
{
    const cplx2 g = BOTH(c[0]), fc = BOTH(c[1]), f = BOTH(c[2]), w = BOTH(c[3]);
    const cplx2 turn = {-0.0, -1.0, -0.0, -1.0};
    const cplx *sq = p->sq, *level = p->level; /* read once: out may alias p */
    const int64_t top = p->dim - 1;
    int64_t n = 1;
    for (; n + 1 < top; n += 2) {
        const cplx2 at = PAIR(y + n);
        const cplx2 up = wide_cmul(PAIR(sq + n - 1), PAIR(y + n - 1));
        const cplx2 down = wide_cmul(PAIR(sq + n), PAIR(y + n + 1));
        cplx2 sum = wide_cmul(w, wide_cmul(PAIR(level + n), at));
        sum = sum + wide_cmul(f, up);
        sum = sum + wide_cmul(fc, down);
        sum = sum + wide_cmul(g, at);
        PAIR(out + n) = wide_cmul(turn, sum);
    }
    return n;
}

/* t = y + h * k on the leading pairs of the n values; returns how many it
 * did */
WIDE int64_t
wide_stage(cplx *t, const cplx *y, double h, const cplx *k, int64_t n)
{
    const cplx2 hh = BOTH(real(h));
    int64_t i = 0;
    for (; i + 1 < n; i += 2)
        PAIR(t + i) = PAIR(y + i) + wide_cmul(hh, PAIR(k + i));
    return i;
}

/* rk4_step's combination on the leading pairs of the n values; returns how
 * many it did */
WIDE int64_t
wide_combine(cplx *y, double sixth, const cplx *k1, const cplx *k2, const cplx *k3,
             const cplx *k4, int64_t n)
{
    const cplx2 two = BOTH(real(2.0)), hh = BOTH(real(sixth));
    int64_t i = 0;
    for (; i + 1 < n; i += 2) {
        const cplx2 sum = (PAIR(k1 + i) + wide_cmul(two, PAIR(k2 + i) + PAIR(k3 + i))) +
                          PAIR(k4 + i);
        PAIR(y + i) = PAIR(y + i) + wide_cmul(hh, sum);
    }
    return i;
}

/* The fused spelling runs wide_levels, the plain one level at a time. */
static inline __attribute__((always_inline)) void
ladder_rhs(const program *p, const cplx *c, const cplx *y, cplx *out, int fused)
{
    out[0] = ladder_level(p, c, y, 0, fused);
    for (int64_t n = fused ? wide_levels(p, c, y, out) : 1; n < p->dim; n++)
        out[n] = ladder_level(p, c, y, n, fused);
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

/* t = y + h * k, the fused ladder's pairs of values wide */
static inline __attribute__((always_inline)) void
stage(cplx *t, const cplx *y, double h, const cplx *k, int64_t n, int fused, int wide)
{
    for (int64_t i = wide ? wide_stage(t, y, h, k, n) : 0; i < n; i++)
        t[i] = add(y[i], cmul(real(h), k[i], fused));
}

/* One RK4 step of y by dt with coefficient rows c0, c_mid, c_next; work
 * holds five states. */
static inline __attribute__((always_inline)) void
rk4_step(const program *p, cplx *y, const cplx *c0, const cplx *c_mid,
         const cplx *c_next, double dt, cplx *work, int fused, int is_ladder)
{
    const int64_t n = p->rows * p->dim;
    const int wide = fused && is_ladder;
    cplx *k1 = work, *k2 = k1 + n, *k3 = k2 + n, *k4 = k3 + n, *t = k4 + n;
    const double half = 0.5 * dt, sixth = dt / 6.0;
    rhs(p, c0, y, k1, fused, is_ladder);
    stage(t, y, half, k1, n, fused, wide);
    rhs(p, c_mid, t, k2, fused, is_ladder);
    stage(t, y, half, k2, n, fused, wide);
    rhs(p, c_mid, t, k3, fused, is_ladder);
    stage(t, y, dt, k3, n, fused, wide);
    rhs(p, c_next, t, k4, fused, is_ladder);
    for (int64_t i = wide ? wide_combine(y, sixth, k1, k2, k3, k4, n) : 0; i < n; i++) {
        const cplx sum = add(add(k1[i], cmul(real(2.0), add(k2[i], k3[i]), fused)), k4[i]);
        y[i] = add(y[i], cmul(real(sixth), sum, fused));
    }
}

/* `steps` grid steps: table holds each step's 5 stage rows in the column
 * order of dynamics._stage_times, dts its 3 steps (dt run, two dt/2
 * substeps). The dt step reads columns 0, 2, 4 (2 is its midpoint m), the
 * substeps 0, 1, 2 and 2, 3, 4. pair holds the dt run's state, then the
 * dt/2 run's. After step j the dt run's state is copied to states[j]. work
 * holds five states. */
static inline __attribute__((always_inline)) void
chunk(const program *p, int64_t steps, const cplx *table, const double *dts,
      cplx *pair, cplx *states, cplx *work, int fused, int is_ladder)
{
    const int64_t n = p->rows * p->dim;
    cplx *full = pair, *halved = pair + n;
    for (int64_t j = 0; j < steps; j++) {
        const cplx *c = table + j * 5 * SLOTS, *m = c + 2 * SLOTS;
        const double *dt = dts + j * 3;
        rk4_step(p, full, c, m, m + 2 * SLOTS, dt[0], work, fused, is_ladder);
        rk4_step(p, halved, c, c + SLOTS, m, dt[1], work, fused, is_ladder);
        rk4_step(p, halved, m, m + SLOTS, m + 2 * SLOTS, dt[2], work, fused, is_ladder);
        memcpy(states + j * n, full, n * sizeof(cplx));
    }
}

/* The chunk entry points, one per RHS kind and spelling; flatten inlines
 * the WIDE functions into the fused ladder's. */
#define ENTRY(name, attr, fused, is_ladder)                                  \
    attr void name(const program *p, int64_t steps, const cplx *table,       \
                   const double *dts, cplx *pair, cplx *states, cplx *work)  \
    {                                                                        \
        chunk(p, steps, table, dts, pair, states, work, fused, is_ladder);   \
    }
ENTRY(cohstab_rk4_chunk_plain, , 0, 0)
ENTRY(cohstab_rk4_chunk_fma, __attribute__((target("fma"))), 1, 0)
ENTRY(cohstab_rk4_ladder_plain, , 0, 1)
ENTRY(cohstab_rk4_ladder_fma, __attribute__((target("avx,fma"), flatten)), 1, 1)

/* The graded product of rows a and b over n_gen generators, row by row,
 * bit for bit kernel.multiply's numpy path: per target, its pairs' products
 * summed from +0.0 in the order of tables.mul_table, each product
 * s*c - q*d, s*d + q*c with s, q the parts of a's coefficient times the
 * table's sign and c, d the parts of b's. The loops walk the table's own
 * order: left masks m ascending, and for each the submasks of ~m
 * ascending. A left coefficient that is +-0 in both parts is skipped when
 * b's row is all finite: each of its products is then +-0, and adding +-0
 * to a sum that started at +0.0 (so is never -0.0) changes no bit. Of an op
 * on two NaNs, whose sign and payload come out is the compiler's choice
 * here and the loop's in numpy (its SIMD body and scalar tail differ), so
 * only which values are NaN is pinned. */
void
cohstab_multiply(int64_t n_gen, int64_t rows, const double *sign, const cplx *a,
                 const cplx *b, cplx *out)
{
    const int64_t dim = (int64_t)1 << n_gen;
    for (int64_t r = 0; r < rows; r++, a += dim, b += dim, out += dim) {
        int finite = 1;
        for (int64_t m = 0; m < dim; m++) {
            finite &= isfinite(b[m].re) && isfinite(b[m].im);
            out[m] = real(0.0);
        }
        int64_t k = 0;
        for (int64_t m = 0; m < dim; m++) {
            const int64_t comp = (dim - 1) & ~m;
            if (finite && a[m].re == 0.0 && a[m].im == 0.0) {
                k += (int64_t)1 << __builtin_popcountll((unsigned long long)comp);
                continue;
            }
            int64_t bm = 0;
            do {
                const double s = a[m].re * sign[k], q = a[m].im * sign[k];
                out[m | bm].re += s * b[bm].re - q * b[bm].im;
                out[m | bm].im += s * b[bm].im + q * b[bm].re;
                k++;
                bm = (bm - comp) & comp;
            } while (bm != 0);
        }
    }
}

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

/* Whether this CPU runs the _fma entry points, AVX ones included: libgcc
 * reports fma only where the OS saves the AVX state (XCR0 bits 1 and 2). */
int
cohstab_has_fma(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("fma");
}

#ifdef __SIZEOF_INT128__
/* The text of a float64 table, each row as Python writes
 * ",".join(map(repr, row)) + "\n" (float_repr_style 'short').
 *
 * Digits: Schubfach's toDecimal (Giulietti, "The Schubfach way to render
 * doubles", 2020), which gives the shortest decimal in the value's rounding
 * interval, the nearest of those, ties to an even last digit: the digits of
 * repr. The shorter candidates are tried from s >= 10 on, not from Java's
 * s >= 100, which keeps at least 2 digits. g holds for each k in
 * [K_MIN, K_MAX] the pair (g >> 63, g mod 2^63) of g = floor(beta) + 1,
 * 10^-k = beta 2^r with 2^125 <= beta < 2^126 (compiled._pow10_table).
 *
 * Layout: the exponent form d[.ddd]e+XX iff decpt <= -4 or decpt > 16,
 * decpt the decimal point's place after the first digit's; else the fixed
 * form, with ".0" after an integral value. -0.0, nan (any sign or
 * payload), inf and -inf are written as repr writes them. */

#define K_MIN (-324)
#define C_MIN ((uint64_t)1 << 52)
#define Q_MIN (-1074)
#define MASK63 (((uint64_t)1 << 63) - 1)

typedef unsigned __int128 u128;

static inline uint64_t
high64(uint64_t a, uint64_t b)
{
    return (uint64_t)(((u128)a * b) >> 64);
}

/* floor(e log10(2)), floor(e log10(2) + log10(3/4)) and floor(e log2(10)),
 * exact for the exponents used here */
static inline int
flog10pow2(int e)
{
    return (int)((int64_t)e * 661971961083LL >> 41);
}

static inline int
flog10_three_quarters_pow2(int e)
{
    return (int)(((int64_t)e * 661971961083LL - 274743187321LL) >> 41);
}

static inline int
flog2pow10(int e)
{
    return (int)((int64_t)e * 913124641741LL >> 38);
}

/* cp g 2^-127 rounded to odd, g = g[0] 2^63 + g[1] */
static inline uint64_t
round_to_odd(const uint64_t *g, uint64_t cp)
{
    const u128 y = (u128)g[0] * cp;
    const uint64_t z = ((uint64_t)y >> 1) + high64(g[1], cp);
    return ((uint64_t)(y >> 64) + (z >> 63)) | (((z & MASK63) + MASK63) >> 63);
}

/* The shortest decimal f 10^k in the rounding interval of c 2^q, c > 0. */
static inline uint64_t
shortest(int q, uint64_t c, const uint64_t *table, int *k_out)
{
    const uint64_t odd = c & 1, cb = c << 2, cbr = cb + 2;
    uint64_t cbl;
    int k;
    if (c != C_MIN || q == Q_MIN) {
        cbl = cb - 2;
        k = flog10pow2(q);
    } else { /* the interval below a power of two is half as wide */
        cbl = cb - 1;
        k = flog10_three_quarters_pow2(q);
    }
    const int h = q + flog2pow10(-k) + 2;
    const uint64_t *g = table + 2 * (k - K_MIN);
    const uint64_t vb = round_to_odd(g, cb << h), vbl = round_to_odd(g, cbl << h),
                   vbr = round_to_odd(g, cbr << h);
    const uint64_t s = vb >> 2;
    *k_out = k;
    if (s >= 10) { /* one digit fewer: s' = floor(s / 10), t' = s' + 1 */
        const uint64_t sp10 = 10 * high64(s, 1844674407370955168ULL), tp10 = sp10 + 10;
        const int upin = vbl + odd <= sp10 << 2, wpin = (tp10 << 2) + odd <= vbr;
        if (upin != wpin)
            return upin ? sp10 : tp10;
    }
    const uint64_t t = s + 1;
    const int uin = vbl + odd <= s << 2, win = (t << 2) + odd <= vbr;
    if (uin != win)
        return uin ? s : t;
    const int64_t cmp = (int64_t)(vb - ((s + t) << 1)); /* both in: the nearer */
    return cmp < 0 || (cmp == 0 && (s & 1) == 0) ? s : t;
}

static const char PAIRS[] = "00010203040506070809101112131415161718192021222324252627282930"
                            "31323334353637383940414243444546474849505152535455565758596061"
                            "62636465666768697071727374757677787980818283848586878889909192"
                            "93949596979899";

/* f 10^k as repr writes it, f > 0; returns the end */
static inline char *
put_decimal(char *p, uint64_t f, int k)
{
    char digits[20], *d = digits + 20;
    while (f % 10 == 0) {
        f /= 10;
        k++;
    }
    for (; f >= 100; f /= 100)
        memcpy(d -= 2, PAIRS + 2 * (f % 100), 2);
    if (f >= 10)
        memcpy(d -= 2, PAIRS + 2 * f, 2);
    else
        *--d = (char)('0' + f);
    const int n = (int)(digits + 20 - d), decpt = n + k;
    if (decpt <= -4 || decpt > 16) {
        *p++ = d[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, d + 1, n - 1);
            p += n - 1;
        }
        int e = decpt - 1;
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        e = e < 0 ? -e : e;
        if (e >= 100) {
            *p++ = (char)('0' + e / 100);
            e %= 100;
        }
        memcpy(p, PAIRS + 2 * e, 2);
        return p + 2;
    }
    if (decpt <= 0) {
        memcpy(p, "0.000", 2 - decpt);
        p += 2 - decpt;
        memcpy(p, d, n);
        return p + n;
    }
    if (decpt < n) {
        memcpy(p, d, decpt);
        p[decpt] = '.';
        memcpy(p + decpt + 1, d + decpt, n - decpt);
        return p + n + 1;
    }
    memcpy(p, d, n);
    p += n;
    memset(p, '0', decpt - n);
    p += decpt - n;
    memcpy(p, ".0", 2);
    return p + 2;
}

/* repr(x) at p; returns the end */
static inline char *
put_repr(char *p, double x, const uint64_t *table)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const uint64_t t = bits & (C_MIN - 1);
    const int bq = (int)(bits >> 52) & 0x7ff;
    if (bq == 0x7ff) {
        if (t != 0) {
            memcpy(p, "nan", 3);
            return p + 3;
        }
        if (bits >> 63)
            *p++ = '-';
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (bits << 1 == 0) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }
    const int mq = bq ? 1075 - bq : -Q_MIN; /* -q, subnormals included */
    const uint64_t c = bq ? C_MIN | t : t;
    if (0 < mq && mq < 53 && (c >> mq) << mq == c) /* an integer below 2^53 */
        return put_decimal(p, c >> mq, 0);
    int k;
    const uint64_t f = shortest(-mq, c, table, &k);
    return put_decimal(p, f, k);
}

/* rows lines of cols values each, from a C-contiguous table; out holds at
 * least rows * cols * 25 bytes (compiled.TEXT_BYTES: the longest value,
 * -1.2345678901234567e-308, and a separator). Returns the bytes written. */
int64_t
cohstab_format_rows(int64_t rows, int64_t cols, const double *values, const uint64_t *g,
                    char *out)
{
    char *p = out;
    for (int64_t r = 0; r < rows; r++) {
        for (int64_t j = 0; j < cols; j++) {
            p = put_repr(p, *values++, g);
            *p++ = ',';
        }
        p[-1] = '\n';
    }
    return p - out;
}
#endif
