/* Compiled batch steps for fastssc: the fixed-point decoder interpreter, the
 * systematic encoder, the AWGN channel arithmetic and the channel quantizer,
 * and, where numpy.random's static library is linked in, the frame bits and
 * the channel noise drawn as numpy's PCG64 Generator draws them.
 *
 * fastssc._clib builds this file with the system C compiler on first use and
 * calls it through ctypes.  Every entry gives the values of the numpy code it
 * stands in for, bit for bit; that code is the reference the tests compare it
 * with, and the fallback when no library loads.  The library is built twice:
 * at the baseline ISA level, and with -march=x86-64-v3 where the baseline
 * build's cpu_supports_x86_64_v3() probe passes.
 *
 * decode_int8_t, decode_int16_t and decode_int32_t take a program as a table of
 * (opcode, stage, node start) rows, one per instruction: Program.table, from
 * the compiler's walk.  Opcode numbers are compiler.Opcode's.  One interpreter
 * instance per working type T and lane count L decodes L frames at once, in a
 * workspace of 2N*L values of T and N*L decision bytes, frame innermost: the
 * stage-s buffer holds its 2^s values at offset 2^s*L, value i of lane j at
 * [i*L + j], and decisions are in natural order, where the node starting at
 * leaf `start` owns beta[start*L, (start + 2^s)*L), so a G's left sibling ends
 * at its start.  Element-wise steps then run over 2^s*L values as one flat
 * loop; REP, SPC and ML4 reduce lane by lane, with the one-frame rules.  Each
 * type has two instances: L = 1, and a wide one with lanes(sizeof(T)) =
 * 32 / sizeof(T) lanes, whose values at one index fill a 32-byte vector.  A
 * batch decodes its whole groups of L frames on the wide instance and the
 * rest one frame at a time.  Soft values never leave [-sat, sat], and the
 * working type holds 2*sat, so b +- a is exact before G clips it.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

enum { F, G, COMBINE, COMBINE_0R, G_0R, P_R1, P_RSPC, P_01, P_0SPC, ML, REP, REP_SPC, R1 };

/* the candidates of the length-4 ML leaf in tie-break order (kernels.ML4_CODEWORDS) */
static const uint8_t ML4[4][4] = {{0, 0, 0, 0}, {1, 1, 1, 1}, {0, 0, 1, 1}, {1, 1, 0, 0}};

/* the lanes of a wide instance: its L values at one index fill 32 bytes; the
   baseline build decodes faster with them too, on 16-byte vectors */
#define VECTOR_BYTES 32
#define WIDE(T) (VECTOR_BYTES / (int)sizeof(T))

/* The lane count of the wide instance of the working type of this size. */
int64_t lanes(int64_t itemsize) { return VECTOR_BYTES / itemsize; }

/* 1 where the CPU runs x86-64-v3 code (AVX2, FMA, BMI1 and BMI2), else 0. */
int64_t cpu_supports_x86_64_v3(void)
{
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")
           && __builtin_cpu_supports("bmi") && __builtin_cpu_supports("bmi2");
#else
    return 0;
#endif
}

/* positions per tile of the lane transposes: one 64-byte line of decisions per frame */
#define BLOCK 64

static void combine(uint8_t *restrict left, const uint8_t *restrict right, int64_t m)
{
    for (int64_t i = 0; i < m; i++)
        left[i] ^= right[i];
}

/* The element-wise steps of working type T, over m values. */
#define KERNELS(T)                                                                        \
    /* F: max(min(a, b), -max(a, b)) */                                                   \
    static void f_##T(const T *restrict a, const T *restrict b, T *restrict out, int64_t m) \
    {                                                                                     \
        for (int64_t i = 0; i < m; i++) {                                                 \
            T lo = a[i] < b[i] ? a[i] : b[i], hi = a[i] < b[i] ? b[i] : a[i];             \
            out[i] = lo > -hi ? lo : (T)-hi;                                              \
        }                                                                                 \
    }                                                                                     \
                                                                                          \
    static T clip_##T(T v, T sat) { return v > sat ? sat : v < -sat ? (T)-sat : v; }      \
                                                                                          \
    /* G: b - a where the left decision is 1, else b + a (left NULL: G-0R), clipped.      \
       With s = -left[i], 0 or all ones, (a ^ s) - s is a or -a, so b +- a takes no       \
       branch; it is exact, as |a| <= sat and T holds 2*sat */                            \
    static void g_##T(const T *restrict a, const T *restrict b,                           \
                      const uint8_t *restrict left, T *restrict out, int64_t m, T sat)   \
    {                                                                                     \
        if (!left) {                                                                      \
            for (int64_t i = 0; i < m; i++)                                               \
                out[i] = clip_##T((T)(b[i] + a[i]), sat);                                 \
            return;                                                                       \
        }                                                                                 \
        for (int64_t i = 0; i < m; i++) {                                                 \
            T s = (T)-left[i], sa = (T)((a[i] ^ s) - s);                                  \
            out[i] = clip_##T((T)(b[i] + sa), sat);                                       \
        }                                                                                 \
    }                                                                                     \
                                                                                          \
    /* hard decision: a value < 0 gives bit 1 */                                          \
    static void hd_##T(const T *restrict v, uint8_t *restrict dst, int64_t m)             \
    {                                                                                     \
        for (int64_t i = 0; i < m; i++)                                                   \
            dst[i] = v[i] < 0;                                                            \
    }

/* The interpreter instance X of working type T with L lanes; m counts values per lane. */
#define INTERPRETER(T, L, X)                                                              \
    /* Wagner SPC: on odd parity flip the lowest-index least |value|.  The first pass     \
       finds each lane's parity and least |value|, the second flips the first value       \
       that reaches it, in lanes whose parity is odd */                                   \
    static void spc_##X(const T *restrict v, uint8_t *restrict dst, int64_t m)            \
    {                                                                                     \
        uint8_t odd[L];                                                                   \
        T least[L];                                                                       \
        for (int j = 0; j < L; j++) {                                                     \
            odd[j] = 0;                                                                   \
            least[j] = v[j] < 0 ? (T)-v[j] : v[j];                                        \
        }                                                                                 \
        for (int64_t i = 0; i < m; i++)                                                   \
            for (int j = 0; j < L; j++) {                                                 \
                T x = v[i * L + j], mag = x < 0 ? (T)-x : x;                              \
                dst[i * L + j] = x < 0;                                                   \
                odd[j] ^= dst[i * L + j];                                                 \
                least[j] = mag < least[j] ? mag : least[j];                               \
            }                                                                             \
        for (int64_t i = 0; i < m; i++)                                                   \
            for (int j = 0; j < L; j++) {                                                 \
                T x = v[i * L + j];                                                       \
                uint8_t flip = odd[j] & ((x < 0 ? (T)-x : x) == least[j]);                \
                dst[i * L + j] ^= flip;                                                   \
                odd[j] ^= flip;                                                           \
            }                                                                             \
    }                                                                                     \
                                                                                          \
    /* repetition: the sign of each lane's unsaturated int64 sum, on every bit */         \
    static void rep_##X(const T *restrict v, uint8_t *restrict dst, int64_t m)            \
    {                                                                                     \
        int64_t sum[L];                                                                   \
        for (int j = 0; j < L; j++)                                                       \
            sum[j] = 0;                                                                   \
        for (int64_t i = 0; i < m; i++)                                                   \
            for (int j = 0; j < L; j++)                                                   \
                sum[j] += v[i * L + j];                                                   \
        for (int64_t i = 0; i < m; i++)                                                   \
            for (int j = 0; j < L; j++)                                                   \
                dst[i * L + j] = sum[j] < 0;                                              \
    }                                                                                     \
                                                                                          \
    /* length-4 ML: per lane the earliest candidate with the best int64 correlation;      \
       with s = v0 + v1 and t = v2 + v3 the four scores are s + t, -(s + t), s - t and    \
       t - s */                                                                           \
    static void ml4_##X(const T *restrict v, uint8_t *restrict dst)                       \
    {                                                                                     \
        for (int j = 0; j < L; j++) {                                                     \
            int64_t s = (int64_t)v[j] + v[L + j], t = (int64_t)v[2 * L + j] + v[3 * L + j]; \
            int64_t score[4] = {s + t, -(s + t), s - t, t - s};                           \
            int pick = 0;                                                                 \
            for (int c = 1; c < 4; c++)                                                   \
                pick = score[c] > score[pick] ? c : pick;                                 \
            for (int i = 0; i < 4; i++)                                                   \
                dst[i * L + j] = ML4[pick][i];                                            \
        }                                                                                 \
    }                                                                                     \
                                                                                          \
    static void frame_##X(const int64_t *prog, int64_t count, T sat, T *alpha,            \
                          uint8_t *beta)                                                  \
    {                                                                                     \
        for (const int64_t *ins = prog; ins < prog + 3 * count; ins += 3) {               \
            int64_t size = (int64_t)1 << ins[1], half = size / 2;                         \
            int64_t w = size * L, hw = half * L; /* values in the node, in a half */      \
            /* a descent reads stage s+1 and writes stage s; a closer reads stage s, */   \
            /* and the stage s-1 buffer is free for the G of a merged step */             \
            T *up = alpha + 2 * w, *node = alpha + w, *down = alpha + hw;                 \
            uint8_t *left = beta + ins[2] * L, *right = left + hw;                        \
            switch (ins[0]) {                                                             \
            case F: f_##T(up, up + w, node, w); break;                                    \
            case G: g_##T(up, up + w, left - w, node, w, sat); break;                     \
            case G_0R: g_##T(up, up + w, NULL, node, w, sat); break;                      \
            case COMBINE: combine(left, right, hw); break;                                \
            case COMBINE_0R: memcpy(left, right, (size_t)hw); break;                      \
            case R1: hd_##T(node, left, w); break;                                        \
            case REP: rep_##X(node, left, size); break;                                   \
            case ML: ml4_##X(node, left); break;                                          \
            case REP_SPC: /* decide the repetition half from F, then a P-RSPC */          \
                f_##T(node, node + hw, down, hw);                                         \
                rep_##X(down, left, half);                                                \
                /* fall through */                                                        \
            case P_RSPC:                                                                  \
                g_##T(node, node + hw, left, down, hw, sat);                              \
                spc_##X(down, right, half);                                               \
                combine(left, right, hw);                                                 \
                break;                                                                    \
            case P_R1:                                                                    \
                g_##T(node, node + hw, left, down, hw, sat);                              \
                hd_##T(down, right, hw);                                                  \
                combine(left, right, hw);                                                 \
                break;                                                                    \
            case P_0SPC:                                                                  \
                g_##T(node, node + hw, NULL, down, hw, sat);                              \
                spc_##X(down, right, half);                                               \
                memcpy(left, right, (size_t)hw);                                          \
                break;                                                                    \
            case P_01:                                                                    \
                g_##T(node, node + hw, NULL, down, hw, sat);                              \
                hd_##T(down, right, hw);                                                  \
                memcpy(left, right, (size_t)hw);                                          \
                break;                                                                    \
            }                                                                             \
        }                                                                                 \
    }                                                                                     \
                                                                                          \
    /* Channel vectors in, decisions out: transmission position p holds leaf rev[p]  */   \
    /* (rev is an involution).  Wide instances transpose through a tile of BLOCK     */   \
    /* positions of all L frames, so each frame's row is walked in order and each    */   \
    /* leaf's L values move as one piece; walking whole rows instead touches L rows  */   \
    /* N apart, or the leaves that rev scatters a block to, in a few cache sets      */   \
    static void load_##X(const int32_t *x, const int64_t *rev, T *root, int64_t N)        \
    {                                                                                     \
        T tile[BLOCK][L];                                                                 \
        if (L == 1) {                                                                     \
            for (int64_t i = 0; i < N; i++)                                               \
                root[i] = (T)x[rev[i]];                                                   \
            return;                                                                       \
        }                                                                                 \
        for (int64_t p0 = 0; p0 < N; p0 += BLOCK) {                                       \
            int64_t m = N - p0 < BLOCK ? N - p0 : BLOCK;                                  \
            for (int j = 0; j < L; j++)                                                   \
                for (int64_t t = 0; t < m; t++)                                           \
                    tile[t][j] = (T)x[j * N + p0 + t];                                    \
            for (int64_t t = 0; t < m; t++)                                               \
                memcpy(root + rev[p0 + t] * L, tile[t], sizeof tile[t]);                  \
        }                                                                                 \
    }                                                                                     \
                                                                                          \
    static void store_##X(const uint8_t *beta, const int64_t *rev, uint8_t *out, int64_t N) \
    {                                                                                     \
        uint8_t tile[BLOCK][L];                                                           \
        if (L == 1) {                                                                     \
            for (int64_t i = 0; i < N; i++)                                               \
                out[i] = beta[rev[i]];                                                    \
            return;                                                                       \
        }                                                                                 \
        for (int64_t p0 = 0; p0 < N; p0 += BLOCK) {                                       \
            int64_t m = N - p0 < BLOCK ? N - p0 : BLOCK;                                  \
            for (int64_t t = 0; t < m; t++)                                               \
                memcpy(tile[t], beta + rev[p0 + t] * L, sizeof tile[t]);                  \
            for (int j = 0; j < L; j++)                                                   \
                for (int64_t t = 0; t < m; t++)                                           \
                    out[j * N + p0 + t] = tile[t][j];                                     \
        }                                                                                 \
    }                                                                                     \
                                                                                          \
    /* Decode `frames`, a multiple of L, int32 channel vectors into `out` */              \
    static void run_##X(const int64_t *prog, int64_t count, int64_t N, T sat,             \
                        int64_t frames, const int32_t *x, const int64_t *rev,            \
                        uint8_t *out, T *alpha)                                           \
    {                                                                                     \
        uint8_t *beta = (uint8_t *)(alpha + 2 * N * L);                                   \
        memset(beta, 0, (size_t)(N * L)); /* an empty (all-frozen) program decides 0s */  \
        for (int64_t f = 0; f < frames; f += L, x += N * L, out += N * L) {               \
            load_##X(x, rev, alpha + N * L, N);                                           \
            frame_##X(prog, count, sat, alpha, beta);                                     \
            store_##X(beta, rev, out, N);                                                 \
        }                                                                                 \
    }

/* The decoder entry of working type T: whole groups of WIDE(T) frames on the wide */
/* instance X, the rest on the one-lane instance; work holds WIDE(T) * N * (2 * sizeof(T) + 1) */
/* bytes */
#define DECODER(T, X)                                                                     \
    void decode_##T(const int64_t *prog, int64_t count, int64_t n_bits, int64_t sat,      \
                    int64_t frames, const int32_t *x, const int64_t *rev, uint8_t *out,   \
                    void *work)                                                           \
    {                                                                                     \
        int64_t N = (int64_t)1 << n_bits, wide = frames - frames % WIDE(T);               \
        if (wide)                                                                         \
            run_##X(prog, count, N, (T)sat, wide, x, rev, out, work);                     \
        if (frames > wide)                                                                \
            run_##T(prog, count, N, (T)sat, frames - wide, x + wide * N, rev,             \
                    out + wide * N, work);                                                \
    }

KERNELS(int8_t)
KERNELS(int16_t)
KERNELS(int32_t)
INTERPRETER(int8_t, 1, int8_t)
INTERPRETER(int16_t, 1, int16_t)
INTERPRETER(int32_t, 1, int32_t)
INTERPRETER(int8_t, WIDE(int8_t), wide_int8_t)
INTERPRETER(int16_t, WIDE(int16_t), wide_int16_t)
INTERPRETER(int32_t, WIDE(int32_t), wide_int32_t)
DECODER(int8_t, wide_int8_t)
DECODER(int16_t, wide_int16_t)
DECODER(int32_t, wide_int32_t)

/* polar._butterfly on one row of n bytes: byte i of each 2h-byte block takes
 * byte i + h.  On little-endian hosts the stages h < 8 shift and mask within
 * 64-bit words, and the stages h >= 8 XOR whole words everywhere; XOR
 * carries nothing between bytes, so the result is the same. */
static void butterfly(uint8_t *x, int64_t n)
{
    int64_t h = 1;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    if (n >= 8) {
        for (int64_t i = 0; i < n; i += 8) {
            uint64_t w;
            memcpy(&w, x + i, 8);
            w ^= (w >> 8) & 0x00FF00FF00FF00FFu;
            w ^= (w >> 16) & 0x0000FFFF0000FFFFu;
            w ^= (w >> 32) & 0x00000000FFFFFFFFu;
            memcpy(x + i, &w, 8);
        }
        h = 8;
    }
#endif
    for (; h < n && h < 8; h *= 2)
        for (int64_t b = 0; b < n; b += 2 * h)
            for (int64_t i = 0; i < h; i++)
                x[b + i] ^= x[b + h + i];
    for (; h < n; h *= 2)
        for (int64_t b = 0; b < n; b += 2 * h)
            for (int64_t i = 0; i < h; i += 8) {
                uint64_t u, v;
                memcpy(&u, x + b + i, 8);
                memcpy(&v, x + b + h + i, 8);
                u ^= v;
                memcpy(x + b + i, &u, 8);
            }
}

/* polar.encode_systematic on `rows` rows of k bits: zero the row, assign the
 * bits to the unfrozen positions `info` (numpy's fill and index assignment),
 * transform, zero the frozen positions (keep = 0), transform */
void encode(const uint8_t *a, int64_t k, const int64_t *info, const uint8_t *keep, int64_t n,
            int64_t rows, uint8_t *out)
{
    for (int64_t r = 0; r < rows; r++, a += k, out += n) {
        memset(out, 0, (size_t)n);
        for (int64_t t = 0; t < k; t++)
            out[info[t]] = a[t];
        butterfly(out, n);
        for (int64_t i = 0; i < n; i++)
            out[i] = (uint8_t)(out[i] * keep[i]);
        butterfly(out, n);
    }
}

/* simulate.awgn_bpsk_llr after the draw: z, standard normals, becomes the LLR
 * ((z*sigma + (1 - 2x)) * 2) / sigma2 in place, rounded as numpy's four passes
 * round it (the build turns off FMA contraction) */
void channel(double *z, const int8_t *x, int64_t m, double sigma, double sigma2)
{
    for (int64_t i = 0; i < m; i++)
        z[i] = ((z[i] * sigma + (int8_t)(1 - 2 * x[i])) * 2.0) / sigma2;
}

#ifdef FASTSSC_NUMPY_RANDOM
/* Draws of numpy's Generator over PCG64, bit for bit, compiled in when
 * _clib links numpy's libnpyrandom.a.  A generator's state travels as six
 * words: state (high, low), increment (high, low), has_uint32, uinteger.
 * numpy.random's bitgen_t, and its normal draw, which reads next_uint64 and
 * next_double only: */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;
double random_standard_normal(bitgen_t *bitgen_state);

__extension__ typedef unsigned __int128 u128;

/* PCG64 (O'Neill 2014): a 128-bit LCG step, then the XSL-RR output */
static uint64_t pcg64_next(u128 *state, u128 inc)
{
    u128 s = *state = *state * (((u128)0x2360ED051FC65DA4u << 64) | 0x4385DF649FCCF645u) + inc;
    uint64_t v = (uint64_t)(s >> 64) ^ (uint64_t)s;
    unsigned rot = (unsigned)(s >> 122);
    return (v >> rot) | (v << ((64 - rot) & 63));
}

/* The bitgen_t numpy's normal draw runs behind: its first next_uint64 returns
   the held word, and later ones step the generator.  A probe (inc = 0, where
   PCG64's is odd) does not step: its later words are 1 << 63, which read as a
   next_uint64 give 0.0 at once and as a next_double give 0.5, and end the tail */
typedef struct { u128 state, inc; uint64_t held; int calls; } shim_t;

static uint64_t shim_next64(void *st)
{
    shim_t *g = st;
    if (!g->calls++)
        return g->held;
    return g->inc ? pcg64_next(&g->state, g->inc) : (uint64_t)1 << 63;
}

static double shim_double(void *st) { return (double)(shim_next64(st) >> 11) * 0x1p-53; }

static double replay(shim_t *g)
{
    bitgen_t bg = {g, shim_next64, NULL, shim_double, NULL};
    return random_standard_normal(&bg);
}

static double wi[256];
static uint64_t ki[256];

/* Reads numpy's ziggurat tables through its own function: the word with index
   idx and magnitude 1 gives wi[idx], and ki[idx] is the least magnitude that
   leaves the fast path, which reads one word only */
void normal_tables(void)
{
    for (uint64_t idx = 0; idx < 256; idx++) {
        shim_t probe = {0, 0, 1 << 9 | idx, 0};
        uint64_t lo = 0, hi = (uint64_t)1 << 52;
        wi[idx] = replay(&probe);
        while (lo < hi) {
            uint64_t mid = lo + (hi - lo) / 2;
            probe.held = mid << 9 | idx;
            probe.calls = 0;
            replay(&probe);
            if (probe.calls == 1)
                lo = mid + 1;
            else
                hi = mid;
        }
        ki[idx] = lo;
    }
}

/* simulate.awgn_bpsk_llr in one pass: Generator.standard_normal's z, then the
 * channel arithmetic above.  The ziggurat's fast path (Marsaglia & Tsang 2000)
 * runs here, with the sign bit XORed in; a miss (~1.2% of values) replays its
 * word through numpy's own function */
void awgn(uint64_t *pcg, const int8_t *x, double *llr, int64_t m, double sigma, double sigma2)
{
    u128 s = (u128)pcg[0] << 64 | pcg[1], inc = (u128)pcg[2] << 64 | pcg[3];
    for (int64_t i = 0; i < m; i++) {
        uint64_t r = pcg64_next(&s, inc), idx = r & 0xff, mag = (r >> 9) & 0xfffffffffffffu, b;
        double z = (double)(int64_t)mag * wi[idx];
        memcpy(&b, &z, 8);
        b ^= (r << 55) & ((uint64_t)1 << 63);
        memcpy(&z, &b, 8);
        if (mag >= ki[idx]) {
            shim_t g = {s, inc, r, 0};
            z = replay(&g);
            s = g.state;
        }
        llr[i] = ((z * sigma + (int8_t)(1 - 2 * x[i])) * 2.0) / sigma2;
    }
    pcg[0] = (uint64_t)(s >> 64);
    pcg[1] = (uint64_t)s;
}

/* Generator.integers(0, 2, m, dtype=np.uint8): Lemire's method over the bytes
 * of next_uint32 words, which for two values is each byte's top bit */
void bits(uint64_t *pcg, uint8_t *out, int64_t m)
{
    u128 s = (u128)pcg[0] << 64 | pcg[1], inc = (u128)pcg[2] << 64 | pcg[3];
    uint64_t has_uint32 = pcg[4], uinteger = pcg[5];
    for (int64_t i = 0; i < m; i += 4, has_uint32 ^= 1) {
        uint64_t w = uinteger;
        if (!has_uint32) {
            w = pcg64_next(&s, inc);
            uinteger = w >> 32;
        }
        for (int j = 0; j < 4 && i + j < m; j++)
            out[i + j] = (w >> (8 * j + 7)) & 1;
    }
    pcg[0] = (uint64_t)(s >> 64);
    pcg[1] = (uint64_t)s;
    pcg[4] = has_uint32;
    pcg[5] = uinteger;
}
#endif

/* quantize.quantize_channel: scale, clip to [-lim, lim], add +-0.5, truncate.
 * Returns 1 when a value is NaN (its slot gets lim, so the cast stays defined). */
int64_t quantize(const double *x, int32_t *q, int64_t m, double scale, double lim)
{
    int64_t nan = 0;
    for (int64_t i = 0; i < m; i++) {
        double s = x[i] * scale;
        nan |= s != s;
        s = s < lim ? s : lim;
        s = s > -lim ? s : -lim;
        q[i] = (int32_t)(s + copysign(0.5, s));
    }
    return nan;
}
