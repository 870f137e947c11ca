/* MQ arithmetic decoding (ITU-T T.88 Annex E, identical to T.800 Annex C)
 * and the two per-pixel loops that drive it: JPX tier-1 code-block
 * decoding (T.800 Annex D) and JBIG2 generic-region decoding (T.88
 * 6.2.5.7). Built and loaded by mq.py through cffi.
 *
 * A context's adaptive state is one byte: (Table E.1 index << 1) | MPS.
 * Every read is length-checked: an MQ read past the end feeds 0xFF (a
 * marker, so 1-bits forever) and a raw read past the end feeds 0 bits.
 * Callers size every buffer from dimensions that already passed the
 * decoders' pixel budgets. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    const uint8_t *data;
    size_t len, bp;
    uint64_t c;
    uint32_t a;
    int ct;
} mq_t;

/* T.88 Table E.1: Qe, NMPS, NLPS, SWITCH */
const uint16_t MQ_QE[47][4] = {
    {0x5601, 1, 1, 1}, {0x3401, 2, 6, 0}, {0x1801, 3, 9, 0},
    {0x0AC1, 4, 12, 0}, {0x0521, 5, 29, 0}, {0x0221, 38, 33, 0},
    {0x5601, 7, 6, 1}, {0x5401, 8, 14, 0}, {0x4801, 9, 14, 0},
    {0x3801, 10, 14, 0}, {0x3001, 11, 17, 0}, {0x2401, 12, 18, 0},
    {0x1C01, 13, 20, 0}, {0x1601, 29, 21, 0}, {0x5601, 15, 14, 1},
    {0x5401, 16, 14, 0}, {0x5101, 17, 15, 0}, {0x4801, 18, 16, 0},
    {0x3801, 19, 17, 0}, {0x3401, 20, 18, 0}, {0x3001, 21, 19, 0},
    {0x2801, 22, 19, 0}, {0x2401, 23, 20, 0}, {0x2201, 24, 21, 0},
    {0x1C01, 25, 22, 0}, {0x1801, 26, 23, 0}, {0x1601, 27, 24, 0},
    {0x1401, 28, 25, 0}, {0x1201, 29, 26, 0}, {0x1101, 30, 27, 0},
    {0x0AC1, 31, 28, 0}, {0x09C1, 32, 29, 0}, {0x08A1, 33, 30, 0},
    {0x0521, 34, 31, 0}, {0x0441, 35, 32, 0}, {0x02A1, 36, 33, 0},
    {0x0221, 37, 34, 0}, {0x0141, 38, 35, 0}, {0x0111, 39, 36, 0},
    {0x0085, 40, 37, 0}, {0x0049, 41, 38, 0}, {0x0025, 42, 39, 0},
    {0x0015, 43, 40, 0}, {0x0009, 44, 41, 0}, {0x0005, 45, 42, 0},
    {0x0001, 45, 43, 0}, {0x5601, 46, 46, 0},
};

static void mq_bytein(mq_t *m)
{
    size_t bp = m->bp, n = m->len;
    unsigned b = bp < n ? m->data[bp] : 0xFF;
    if (b == 0xFF) {
        unsigned b1 = bp + 1 < n ? m->data[bp + 1] : 0xFF;
        if (b1 > 0x8F) { /* marker: feed 1-bits forever */
            m->c += 0xFF00;
            m->ct = 8;
        } else {
            m->bp = bp + 1;
            m->c += (uint64_t)b1 << 9;
            m->ct = 7;
        }
    } else {
        m->bp = bp + 1;
        unsigned b1 = m->bp < n ? m->data[m->bp] : 0xFF;
        m->c += (uint64_t)b1 << 8;
        m->ct = 8;
    }
}

void mq_init(mq_t *m, const uint8_t *data, size_t len)
{
    m->data = data;
    m->len = len;
    m->bp = 0;
    m->c = (uint64_t)(len ? data[0] : 0xFF) << 16;
    mq_bytein(m);
    m->c = (m->c << 7) & 0xFFFFFFFFu;
    m->ct -= 7;
    m->a = 0x8000;
}

/* Decode one bit with the adaptive state ``*cx`` (software conventions,
 * T.88 E.3.2-E.3.3: conditional exchange, then renormalisation). */
static inline int mq_bit(mq_t *m, uint8_t *cx)
{
    unsigned s = *cx, mps = s & 1;
    const uint16_t *q = MQ_QE[s >> 1];
    uint32_t qe = q[0];
    int d;
    m->a -= qe;
    if (((m->c >> 16) & 0xFFFF) < qe) {
        if (m->a < qe) {
            d = mps;
            *cx = (uint8_t)(q[1] << 1 | mps);
        } else {
            d = !mps;
            *cx = (uint8_t)(q[2] << 1 | (mps ^ q[3]));
        }
        m->a = qe;
    } else {
        m->c -= (uint64_t)qe << 16;
        if (m->a & 0x8000)
            return mps;
        if (m->a < qe) {
            d = !mps;
            *cx = (uint8_t)(q[2] << 1 | (mps ^ q[3]));
        } else {
            d = mps;
            *cx = (uint8_t)(q[1] << 1 | mps);
        }
    }
    do {
        if (m->ct == 0)
            mq_bytein(m);
        m->a = (m->a << 1) & 0xFFFF;
        m->c = (m->c << 1) & 0xFFFFFFFFu;
        m->ct--;
    } while (!(m->a & 0x8000));
    return d;
}

int mq_decode(mq_t *m, uint8_t *stats, int cx)
{
    return mq_bit(m, stats + cx);
}

/* -- JBIG2 generic region (T.88 6.2.5.7) --------------------------------
 * ``tx``/``ty`` are the template's n pixel offsets (fixed + AT), sorted
 * by (y, x); the context is assembled MSB-first in that order, out-of-
 * image pixels read 0. ``tpgd_ctx`` < 0 disables TPGDON; ``skip`` (or
 * NULL) flags USESKIP pixels, which are not coded and stay 0. ``out``
 * is a zeroed h*w bitmap (1 = black). */
void mq_generic_region(mq_t *m, uint8_t *stats, uint8_t *out, int w, int h,
                       const int *tx, const int *ty, int n, int tpgd_ctx,
                       const uint8_t *skip)
{
    int ltp = 0;
    for (int y = 0; y < h; y++) {
        uint8_t *row = out + (size_t)y * w;
        if (tpgd_ctx >= 0) {
            if (mq_bit(m, stats + tpgd_ctx))
                ltp ^= 1;
            if (ltp) { /* typical row: a copy of the row above */
                if (y > 0)
                    memcpy(row, row - w, (size_t)w);
                continue;
            }
        }
        const uint8_t *srow = skip ? skip + (size_t)y * w : NULL;
        for (int x = 0; x < w; x++) {
            if (srow && srow[x])
                continue;
            unsigned ctx = 0;
            for (int k = 0; k < n; k++) {
                int xx = x + tx[k], yy = y + ty[k];
                ctx <<= 1;
                if (xx >= 0 && xx < w && yy >= 0 && yy < h)
                    ctx |= out[(size_t)yy * w + xx];
            }
            row[x] = (uint8_t)mq_bit(m, stats + ctx);
        }
    }
}

/* -- JPX tier-1 (T.800 Annex D) -----------------------------------------
 * Per-sample flags and neighbourhood counts live on a grid padded by one
 * sample on every side, so neighbours never need bounds checks. The
 * counts are kept incrementally: when a sample becomes significant its
 * eight neighbours' counts go up. nb = h | v << 2 | d << 4 (h, v <= 2,
 * d <= 4) indexes the orientation's 128-entry zero-coding table. */

enum { CTX_SC0 = 9, CTX_MR0 = 14, CTX_RL = 17, CTX_UNI = 18, N_CTX = 19 };
enum { F_SIG = 1, F_VIS = 2, F_REF = 4, F_SGN = 8 };

typedef struct {
    const uint8_t *d;
    size_t len, pos;
    unsigned c;
    int ct;
} raw_t;

/* Raw (bypass) bits with 0xFF unstuffing: the byte after an 0xFF
 * carries only 7 bits (D.6). */
static int raw_bit(raw_t *r)
{
    if (r->ct == 0) {
        unsigned prev = r->c;
        r->c = r->pos < r->len ? r->d[r->pos] : 0;
        r->pos++;
        r->ct = prev == 0xFF ? 7 : 8;
    }
    r->ct--;
    return (r->c >> r->ct) & 1;
}

typedef struct {
    int w, h, pw, causal;
    uint8_t *fl, *nb;
    uint64_t *mag;
    uint8_t cx[N_CTX];
    mq_t mq;
    raw_t raw;
    const uint8_t *zc;
    uint64_t bit;   /* 1 << p, or 0 when p >= 63 */
    int big;        /* p >= 63: a set bit cannot fit int64 */
    int overflow;
} t1_t;

static void t1_init_ctx(t1_t *t)
{
    memset(t->cx, 0, sizeof t->cx);
    t->cx[CTX_UNI] = 46 << 1;
    t->cx[CTX_RL] = 3 << 1;
    t->cx[0] = 4 << 1;
}

/* Padded-grid index of sample (x, y). */
#define T1_AT(t, x, y) (((y) + 1) * (t)->pw + (x) + 1)

/* Vertically causal mode: the last row of a stripe ignores the row
 * below it. */
#define T1_BELOW(t, y) (!((t)->causal && ((y) & 3) == 3))

static void t1_set_sig(t1_t *t, int i, int y, int negative, int mpos)
{
    int pw = t->pw;
    uint8_t *nb = t->nb;
    t->fl[i] |= F_SIG | (negative ? F_SGN : 0);
    t->mag[mpos] |= t->bit;
    if (t->big)
        t->overflow = 1;
    nb[i - 1] += 1;
    nb[i + 1] += 1;
    nb[i + pw] += 4;
    nb[i + pw - 1] += 16;
    nb[i + pw + 1] += 16;
    if (!(t->causal && (y & 3) == 0)) {
        nb[i - pw] += 4;
        nb[i - pw - 1] += 16;
        nb[i - pw + 1] += 16;
    }
}

static int t1_sgn(uint8_t f)
{
    return (f & F_SIG) ? ((f & F_SGN) ? -1 : 1) : 0;
}

/* Sign coding (Tables D.2/D.3). */
static int t1_decode_sign(t1_t *t, int i, int y)
{
    static const uint8_t ctx[9] = {4, 3, 2, 1, 0, 1, 2, 3, 4};
    const uint8_t *fl = t->fl;
    int hc = t1_sgn(fl[i - 1]) + t1_sgn(fl[i + 1]);
    int vc = t1_sgn(fl[i - t->pw]) +
             (T1_BELOW(t, y) ? t1_sgn(fl[i + t->pw]) : 0);
    hc = hc < -1 ? -1 : hc > 1 ? 1 : hc;
    vc = vc < -1 ? -1 : vc > 1 ? 1 : vc;
    int k = (hc + 1) * 3 + (vc + 1);
    return mq_bit(&t->mq, t->cx + CTX_SC0 + ctx[k]) ^ (k < 4);
}

static void t1_spp(t1_t *t, int raw)
{
    for (int k0 = 0; k0 < t->h; k0 += 4) {
        int k1 = k0 + 4 < t->h ? k0 + 4 : t->h;
        for (int x = 0; x < t->w; x++) {
            for (int y = k0; y < k1; y++) {
                int i = T1_AT(t, x, y);
                unsigned nb = t->nb[i];
                if ((t->fl[i] & F_SIG) || !nb)
                    continue;
                t->fl[i] |= F_VIS;
                if (raw) {
                    if (raw_bit(&t->raw))
                        t1_set_sig(t, i, y, raw_bit(&t->raw), y * t->w + x);
                } else if (mq_bit(&t->mq, t->cx + t->zc[nb])) {
                    t1_set_sig(t, i, y, t1_decode_sign(t, i, y),
                               y * t->w + x);
                }
            }
        }
    }
}

static void t1_mrp(t1_t *t, int raw)
{
    for (int k0 = 0; k0 < t->h; k0 += 4) {
        int k1 = k0 + 4 < t->h ? k0 + 4 : t->h;
        for (int x = 0; x < t->w; x++) {
            for (int y = k0; y < k1; y++) {
                int i = T1_AT(t, x, y);
                uint8_t f = t->fl[i];
                if (!(f & F_SIG) || (f & F_VIS))
                    continue;
                int b;
                if (raw)
                    b = raw_bit(&t->raw);
                else {
                    int c = (f & F_REF) ? 2 : t->nb[i] ? 1 : 0;
                    b = mq_bit(&t->mq, t->cx + CTX_MR0 + c);
                }
                if (b) {
                    t->mag[y * t->w + x] |= t->bit;
                    if (t->big)
                        t->overflow = 1;
                }
                t->fl[i] |= F_REF;
            }
        }
    }
}

/* Cleanup pass with run-length mode (D.4.4); returns -1 on a
 * segmentation-symbol mismatch. */
static int t1_cup(t1_t *t, int segsym)
{
    for (int k0 = 0; k0 < t->h; k0 += 4) {
        int k1 = k0 + 4 < t->h ? k0 + 4 : t->h;
        for (int x = 0; x < t->w; x++) {
            int start = k0;
            if (k1 - k0 == 4) {
                int rl = 1;
                for (int y = k0; y < k1 && rl; y++) {
                    int i = T1_AT(t, x, y);
                    if ((t->fl[i] & (F_SIG | F_VIS)) || t->nb[i])
                        rl = 0;
                }
                if (rl) {
                    if (!mq_bit(&t->mq, t->cx + CTX_RL))
                        continue; /* all four stay insignificant */
                    int r = mq_bit(&t->mq, t->cx + CTX_UNI) << 1;
                    r |= mq_bit(&t->mq, t->cx + CTX_UNI);
                    int y = k0 + r, i = T1_AT(t, x, y);
                    t1_set_sig(t, i, y, t1_decode_sign(t, i, y),
                               y * t->w + x);
                    start = y + 1;
                }
            }
            for (int y = start; y < k1; y++) {
                int i = T1_AT(t, x, y);
                if (t->fl[i] & (F_SIG | F_VIS))
                    continue;
                if (mq_bit(&t->mq, t->cx + t->zc[t->nb[i]]))
                    t1_set_sig(t, i, y, t1_decode_sign(t, i, y),
                               y * t->w + x);
            }
        }
    }
    if (segsym) {
        int s = 0;
        for (int k = 0; k < 4; k++)
            s = (s << 1) | mq_bit(&t->mq, t->cx + CTX_UNI);
        if (s != 0xA)
            return -1;
    }
    return 0;
}

/* Pass type by global pass index: 0 = SPP, 1 = MRP, 2 = CUP; pass 0 is
 * the first cleanup, then (SPP, MRP, CUP) per bitplane. */
static int t1_pass_type(int t)
{
    return t == 0 ? 2 : (t - 1) % 3;
}

/* Does a codeword segment end after pass t (D.4.1 + D.6)? */
static int t1_seg_end(int t, int cbstyle)
{
    if (cbstyle & 0x04)
        return 1;
    if (cbstyle & 0x01)
        return t >= 9 && t1_pass_type(t) != 0;
    return 0;
}

/* Raw (bypass) passes: SPP/MRP from the 11th coding pass on. */
static int t1_is_raw(int t, int cbstyle)
{
    return (cbstyle & 0x01) && t >= 10 && t1_pass_type(t) != 2;
}

/* EBCOT tier-1 decode of one w x h code-block whose codeword segments
 * are ``nsegs`` consecutive runs of ``data`` (lengths ``seg_len``).
 * Writes each sample's signed magnitude, with any ROI (maxshift)
 * magnitude >= 2^roi shifted back down by roi, to out[y * stride + x].
 * Returns 0, -1 on a segmentation-symbol mismatch, -2 when a decoded
 * bit at bitplane >= 63 makes a magnitude that int64 cannot hold, -3
 * when memory runs out. */
int t1_decode_cblk(const uint8_t *data, const size_t *seg_len, int nsegs,
                   int w, int h, int numbps, int npasses,
                   const uint8_t *zc, int cbstyle, int roi,
                   int64_t *out, ptrdiff_t stride)
{
    t1_t t;
    size_t npad = (size_t)(w + 2) * (size_t)(h + 2);
    size_t n = (size_t)w * (size_t)h;
    uint8_t *grids = calloc(2 * npad, 1);
    uint64_t *mag = calloc(n ? n : 1, sizeof *mag);
    int rc = 0, seg = 0, raw = 0, pass = 0;
    size_t off = 0;
    if (!grids || !mag) {
        free(grids);
        free(mag);
        return -3;
    }
    t.w = w;
    t.h = h;
    t.pw = w + 2;
    t.causal = (cbstyle & 0x08) != 0;
    t.fl = grids;
    t.nb = grids + npad;
    t.mag = mag;
    t.zc = zc;
    t.overflow = 0;
    t1_init_ctx(&t);
    for (int p = numbps - 1; p >= 0 && !rc; p--) {
        t.bit = p < 63 ? (uint64_t)1 << p : 0;
        t.big = p >= 63;
        for (int kind = p == numbps - 1 ? 2 : 0; kind < 3; kind++) {
            if (pass >= npasses)
                goto done;
            if (pass == 0 || t1_seg_end(pass - 1, cbstyle)) {
                const uint8_t *d = data ? data + off : data;
                size_t len = seg < nsegs ? seg_len[seg] : 0;
                off += len;
                seg++;
                raw = t1_is_raw(pass, cbstyle);
                if (raw) {
                    t.raw.d = d;
                    t.raw.len = len;
                    t.raw.pos = 0;
                    t.raw.c = 0;
                    t.raw.ct = 0;
                } else {
                    mq_init(&t.mq, d, len);
                }
            }
            if (kind == 0)
                t1_spp(&t, raw);
            else if (kind == 1)
                t1_mrp(&t, raw);
            else if (t1_cup(&t, (cbstyle & 0x20) != 0)) {
                rc = -1;
                break;
            }
            if (cbstyle & 0x02)
                t1_init_ctx(&t);
            pass++;
        }
        for (size_t i = 0; i < npad; i++)
            t.fl[i] &= ~F_VIS;
    }
done:
    if (!rc && t.overflow)
        rc = -2;
    if (!rc) {
        for (int y = 0; y < h; y++) {
            for (int x = 0; x < w; x++) {
                uint64_t v = mag[(size_t)y * w + x];
                if (roi > 0 && roi < 64 && (v >> roi))
                    v >>= roi;
                int neg = t.fl[T1_AT(&t, x, y)] & F_SGN;
                out[y * stride + x] = neg ? -(int64_t)v : (int64_t)v;
            }
        }
    }
    free(grids);
    free(mag);
    return rc;
}
