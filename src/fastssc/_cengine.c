/* Compiled batch steps for fastssc: the fixed-point decoder interpreter, the
 * float decoder's F, G, REP and decision gather, the systematic encoder
 * and the channel quantizer, and, where numpy.random's static library is
 * linked in, the frame bits and the AWGN channel LLRs drawn as numpy's PCG64
 * Generator draws them.
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
 * workspace of 2N*L values of T and N*L decision bytes, allocated per call,
 * frame innermost: the stage-s buffer holds its 2^s values at offset 2^s*L,
 * value i of lane j at [i*L + j], and decisions are in natural order, where the
 * node starting at leaf `start` owns beta[start*L, (start + 2^s)*L), so a G's
 * left sibling ends at its start.  Element-wise steps then run over 2^s*L values
 * as one flat loop; REP, SPC and ML4 reduce lane by lane, with the one-frame
 * rules.  Each type has two instances: L = 1, and a wide one with WIDE(T) = 32 /
 * sizeof(T) lanes, whose values at one index fill a 32-byte vector.  A batch
 * decodes its whole groups of L frames on the wide instance and the rest one
 * frame at a time.  Soft values never leave [-sat, sat], and the working type
 * holds 2*sat, so b +- a is exact before G clips it.  Where the build has AVX2
 * (the x86-64-v3 one), the wide instances move frames in and out of the lanes
 * by SIMD tile transposes; the scalar tiles serve the baseline build, other
 * hosts and N below a tile.  The load checks that each int32 channel value is
 * within [-lim, lim]; a decode returns 1, and stops, at the first group with
 * one outside.
 *
 * f_rows, g_rows, f_root, g_root, rep_rows and gather_uint8_t are steps of
 * the float plans that engine._link builds over numpy buffers, one frame per
 * row; numpy runs the rest of those plans.  f_root and g_root read the input
 * rows in place, through the bit reversal, and check the float limit, as the
 * fixed-point load checks the channel range.
 *
 * encode runs the systematic encoder on rows packed into 64-bit words, one
 * bit per position: it deposits the information bits at the unfrozen
 * positions (with BMI2's pdep where the build has it), transforms with
 * in-word shift-and-mask stages and cross-word XORs, keeps, transforms again
 * and expands the words back to bytes.
 *
 * awgn and bits draw as numpy's Generator over PCG64 does, from one buffer of
 * the generator's 64-bit words (stream_t), 512 at a time.  Four interleaved
 * LCG chains fill it, each stepping four words at once, so their 128-bit
 * multiplies overlap.  awgn runs numpy's ziggurat fast path on groups of four
 * words (in AVX2 in the x86-64-v3 build) and keeps the values before a group's
 * first miss; the missed value replays through numpy's own normal draw, behind
 * the one bitgen_t shim over the buffer, which reads its further words from it
 * and fills it again where it runs out.  bits takes whole words from the same
 * buffer.  normal_tables probes numpy's ziggurat tables through the same shim.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#if defined(__AVX2__) || defined(__BMI2__)
#include <immintrin.h>
#endif

enum { F, G, COMBINE, COMBINE_0R, G_0R, P_R1, P_RSPC, P_01, P_0SPC, ML, REP, REP_SPC, R1 };

/* the candidates of the length-4 ML leaf in tie-break order (kernels.ML4_CODEWORDS) */
static const uint8_t ML4[4][4] = {{0, 0, 0, 0}, {1, 1, 1, 1}, {0, 0, 1, 1}, {1, 1, 0, 0}};

/* the lanes of a wide instance: its L values at one index fill 32 bytes; the
   baseline build decodes faster with them too, on 16-byte vectors */
#define VECTOR_BYTES 32
#define WIDE(T) (VECTOR_BYTES / (int)sizeof(T))

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

/* positions per tile of the scalar lane transposes: one 64-byte line of decisions per frame */
#define BLOCK 64

#ifdef __AVX2__
typedef __m256i V;

/* Unpack (lo or hi) on 32-byte vectors of size-byte elements */
static V v_unpack(V a, V b, int size, int hi)
{
    switch (size) {
    case 1: return hi ? _mm256_unpackhi_epi8(a, b) : _mm256_unpacklo_epi8(a, b);
    case 2: return hi ? _mm256_unpackhi_epi16(a, b) : _mm256_unpacklo_epi16(a, b);
    case 4: return hi ? _mm256_unpackhi_epi32(a, b) : _mm256_unpacklo_epi32(a, b);
    default: return hi ? _mm256_unpackhi_epi64(a, b) : _mm256_unpacklo_epi64(a, b);
    }
}

/* The transpose of the L x L tile of size-byte elements, L = 32 / size, whose
 * row i is r[i]: o[t] gets column t.  Rung p = 1, 2, 4, ... of the ladder
 * unpacks rows i and i + p, its element size doubling from `size` up to 8
 * bytes.  With H = L / 2, row x then holds columns c and c + H of rows
 * [0, H), in its low and high 128-bit lane, and row x + H those of rows
 * [H, L), where c is x with its log2(H) bits reversed; one lane swap per
 * column finishes.  The rows are overwritten. */
static void transpose(V *r, V *o, int size)
{
    int L = 32 / size, H = L / 2;
    /* unrolled, so that each unpack's width is a constant */
#pragma GCC unroll 4
    for (int g = size, p = 1; g < 16; g *= 2, p *= 2)
#pragma GCC unroll 32
        for (int i = 0; i < L; i++)
            if (!(i & p)) {
                V a = r[i], b = r[i | p];
                r[i] = v_unpack(a, b, g, 0);
                r[i | p] = v_unpack(a, b, g, 1);
            }
#pragma GCC unroll 16
    for (int x = 0; x < H; x++) {
        int c = 0;
        for (int bit = 1; bit < H; bit *= 2)
            c = 2 * c + !!(x & bit);
        o[c] = _mm256_permute2x128_si256(r[x], r[x + H], 0x20);
        o[c + H] = _mm256_permute2x128_si256(r[x], r[x + H], 0x31);
    }
}
#endif

/* The load of a wide instance of size-byte values, 32 / size lanes, by SIMD
 * tile transposes, int32 rows of x packed to the working type (exactly, for
 * values in range: packs saturates).  Returns 1
 * where a value is outside [-lim, lim], else 0, or -1 where this build, or
 * N, has no such load. */
static int load_simd(const int32_t *x, const int64_t *rev, void *root, int64_t N, int size,
                     int32_t lim)
{
#ifdef __AVX2__
    int L = 32 / size;
    if (N >= L) {
        V r[32], o[32], top = _mm256_set1_epi32(lim), bottom = _mm256_set1_epi32(-lim);
        V out = _mm256_setzero_si256(); /* all ones where a value is outside */
        const V order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7); /* packs interleaves lanes */
        for (int64_t p0 = 0; p0 < N; p0 += L) {
            for (int j = 0; j < L; j++) {
                const V *row = (const V *)(x + j * N + p0);
                V v[4];
                for (int i = 0; i < 4 / size; i++) {
                    v[i] = _mm256_loadu_si256(row + i);
                    out = _mm256_or_si256(out, _mm256_or_si256(_mm256_cmpgt_epi32(v[i], top),
                                                               _mm256_cmpgt_epi32(bottom, v[i])));
                }
                if (size == 2)
                    v[0] = _mm256_permute4x64_epi64(_mm256_packs_epi32(v[0], v[1]), 0xD8);
                if (size == 1)
                    v[0] = _mm256_permutevar8x32_epi32(
                        _mm256_packs_epi16(_mm256_packs_epi32(v[0], v[1]),
                                           _mm256_packs_epi32(v[2], v[3])),
                        order);
                r[j] = v[0];
            }
            transpose(r, o, size);
            for (int t = 0; t < L; t++)
                _mm256_storeu_si256((V *)((char *)root + rev[p0 + t] * 32), o[t]);
        }
        return !_mm256_testz_si256(out, out);
    }
#endif
    (void)x, (void)rev, (void)root, (void)N, (void)size, (void)lim;
    return -1;
}

/* The store of the 32-lane instance's decisions by SIMD tile transposes; 0
 * where this build, or N, has none. */
static int store_simd(const uint8_t *beta, const int64_t *rev, uint8_t *out, int64_t N)
{
#ifdef __AVX2__
    if (N >= 32) {
        V r[32], o[32];
        for (int64_t p0 = 0; p0 < N; p0 += 32) {
            for (int t = 0; t < 32; t++)
                r[t] = _mm256_loadu_si256((const V *)(beta + rev[p0 + t] * 32));
            transpose(r, o, 1);
            for (int j = 0; j < 32; j++)
                _mm256_storeu_si256((V *)(out + j * N + p0), o[j]);
        }
        return 1;
    }
#endif
    (void)beta, (void)rev, (void)out, (void)N;
    return 0;
}

static void combine(uint8_t *restrict left, const uint8_t *restrict right, int64_t m)
{
    for (int64_t i = 0; i < m; i++)
        left[i] ^= right[i];
}

/* STEP(i, rev[i]) for each value i < n of a row, for rev a bit-reversal
 * permutation.  From n = 64 on it runs in 8 x 8 tiles: with i = h*n/8 + m + l,
 * where h, l < 8 and m is a multiple of 8 below n/8, rev[i] = rev[l] + rev[m] +
 * rev[h*n/8], as the three take disjoint bits, so the tile's 8 runs of i at
 * h*n/8 + m (h < 8) read the runs at rev[m] + rev[l] (l < 8), each whole;
 * FETCH(k), for k < n/8, prefetches the next row's k-th run once per row. */
#if defined(__GNUC__) || defined(__clang__)
#define PREFETCH(p) __builtin_prefetch(p)
#else
#define PREFETCH(p) (void)(p)
#endif
#define REV_TILES(n, FETCH, STEP)                                                         \
    if ((n) < 64) {                                                                       \
        for (int64_t i = 0; i < (n); i++)                                                 \
            STEP(i, rev[i]);                                                              \
    } else {                                                                              \
        for (int64_t s = (n) / 8, m = 0; m < s; m += 8)                                   \
            for (int64_t h = 0; h < 8; h++) {                                             \
                int64_t run = rev[m] + rev[h * s];                                        \
                FETCH(m + h);                                                             \
                for (int l = 0; l < 8; l++)                                               \
                    STEP(h * s + m + l, run + rev[l]);                                    \
            }                                                                             \
    }

/* Rows of n values through rev, the bit-reversal permutation: out row r holds
 * in row r's value rev[i] at i.  rev is an involution, so the one gather brings
 * decisions back out in transmission order (the float plans' and the one-lane
 * interpreter's). */
void gather_uint8_t(const uint8_t *in, const int64_t *rev, uint8_t *out, int64_t rows, int64_t n)
{
    for (int64_t r = 0; r < rows; r++, in += n, out += n) {
#define FETCH(k) if (r + 1 < rows) PREFETCH(in + n + 8 * (k))
#define MOVE(i, j) out[i] = in[j]
        REV_TILES(n, FETCH, MOVE)
#undef FETCH
#undef MOVE
    }
}

/* F of type T, max(min(x, y), -max(x, y)), of two values and over m values.
   F and clip negate into T before they compare: compared in int, after C's
   promotion, each lane would widen; it is exact, as every value is in [-sat,
   sat].  The float F needs no NaN rule: within the float limit no step makes
   a NaN */
#define F_OF(T)                                                                           \
    static inline T f1_##T(T x, T y)                                                      \
    {                                                                                     \
        T lo = x < y ? x : y, hi = x < y ? y : x, nh = (T)-hi;                            \
        return lo > nh ? lo : nh;                                                         \
    }                                                                                     \
                                                                                          \
    static void f_##T(const T *restrict a, const T *restrict b, T *restrict out, int64_t m) \
    {                                                                                     \
        for (int64_t i = 0; i < m; i++)                                                   \
            out[i] = f1_##T(a[i], b[i]);                                                  \
    }

/* The other element-wise steps of working type T, over m values. */
#define KERNELS(T)                                                                        \
    F_OF(T)                                                                               \
                                                                                          \
    static T clip_##T(T v, T sat)                                                         \
    {                                                                                     \
        T ns = (T)-sat;                                                                   \
        return v > sat ? sat : v < ns ? ns : v;                                           \
    }                                                                                     \
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
            case P_R1: case P_RSPC: case P_01: case P_0SPC: {                             \
                /* G (with no left sibling at rate 0), decide the right child by a */    \
                /* hard decision or SPC, close the node by XOR or (rate 0) a copy */      \
                int zero = ins[0] == P_01 || ins[0] == P_0SPC;                            \
                g_##T(node, node + hw, zero ? NULL : left, down, hw, sat);                \
                if (ins[0] == P_R1 || ins[0] == P_01)                                     \
                    hd_##T(down, right, hw);                                              \
                else                                                                      \
                    spc_##X(down, right, half);                                           \
                if (zero)                                                                 \
                    memcpy(left, right, (size_t)hw);                                      \
                else                                                                      \
                    combine(left, right, hw);                                             \
            }                                                                             \
            }                                                                             \
        }                                                                                 \
    }                                                                                     \
                                                                                          \
    /* Channel vectors in, decisions out: transmission position p holds leaf rev[p]  */   \
    /* (rev is an involution).  Wide instances transpose in tiles by SIMD where the  */   \
    /* build has AVX2 (load_simd, store_simd), else through a tile of BLOCK          */   \
    /* positions of all L frames, so each frame's row is walked in order and each    */   \
    /* leaf's L values move as one piece; walking whole rows instead touches L rows  */   \
    /* N apart, or the leaves that rev scatters a block to, in a few cache sets.     */   \
    /* The load returns 1 where a channel value is outside [-lim, lim], else 0       */   \
    static int load_##X(const int32_t *x, const int64_t *rev, T *root, int64_t N, int32_t lim) \
    {                                                                                     \
        T tile[BLOCK][L];                                                                 \
        int bad = 0;                                                                      \
        if (L == 1) {                                                                     \
            for (int64_t i = 0; i < N; i++) {                                             \
                int32_t v = x[rev[i]];                                                    \
                bad |= (v < -lim) | (v > lim);                                            \
                root[i] = (T)v;                                                           \
            }                                                                             \
            return bad;                                                                   \
        }                                                                                 \
        bad = load_simd(x, rev, root, N, (int)sizeof(T), lim);                            \
        if (bad >= 0)                                                                     \
            return bad;                                                                   \
        bad = 0;                                                                          \
        for (int64_t p0 = 0; p0 < N; p0 += BLOCK) {                                       \
            int64_t m = N - p0 < BLOCK ? N - p0 : BLOCK;                                  \
            for (int j = 0; j < L; j++)                                                   \
                for (int64_t t = 0; t < m; t++) {                                         \
                    int32_t v = x[j * N + p0 + t];                                        \
                    bad |= (v < -lim) | (v > lim);                                        \
                    tile[t][j] = (T)v;                                                    \
                }                                                                         \
            for (int64_t t = 0; t < m; t++)                                               \
                memcpy(root + rev[p0 + t] * L, tile[t], sizeof tile[t]);                  \
        }                                                                                 \
        return bad;                                                                       \
    }                                                                                     \
                                                                                          \
    static void store_##X(const uint8_t *beta, const int64_t *rev, uint8_t *out, int64_t N) \
    {                                                                                     \
        uint8_t tile[BLOCK][L];                                                           \
        if (L == 1) {                                                                     \
            gather_uint8_t(beta, rev, out, 1, N);                                         \
            return;                                                                       \
        }                                                                                 \
        if (L == 32 && store_simd(beta, rev, out, N))                                     \
            return;                                                                       \
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
    /* Decode `frames`, a multiple of L, int32 channel vectors into `out`; returns 1,     \
       and stops, at the first group with a value outside [-lim, lim] */                  \
    static int run_##X(const int64_t *prog, int64_t count, int64_t N, T sat, int32_t lim,  \
                       int64_t frames, const int32_t *x, const int64_t *rev,             \
                       uint8_t *out, T *alpha)                                            \
    {                                                                                     \
        uint8_t *beta = (uint8_t *)(alpha + 2 * N * L);                                   \
        memset(beta, 0, (size_t)(N * L)); /* an empty (all-frozen) program decides 0s */  \
        for (int64_t f = 0; f < frames; f += L, x += N * L, out += N * L) {               \
            if (load_##X(x, rev, alpha + N * L, N, lim))                                  \
                return 1;                                                                 \
            frame_##X(prog, count, sat, alpha, beta);                                     \
            store_##X(beta, rev, out, N);                                                 \
        }                                                                                 \
        return 0;                                                                         \
    }

/* The decoder entry of working type T: whole groups of WIDE(T) frames on the wide */
/* instance X, the rest on the one-lane instance, in one workspace of L * N * (2 * sizeof(T) */
/* + 1) bytes, L the larger lane count used.  Returns -1 where malloc fails, 1 where a */
/* channel value is outside [-lim, lim] (out is then undefined), else 0 */
#define DECODER(T, X)                                                                     \
    int64_t decode_##T(const int64_t *prog, int64_t count, const int64_t *rev,            \
                       int64_t n_bits, int64_t sat, int64_t lim, int64_t frames,          \
                       const int32_t *x, uint8_t *out)                                    \
    {                                                                                     \
        int64_t N = (int64_t)1 << n_bits, wide = frames - frames % WIDE(T), bad;          \
        void *work = malloc((size_t)((wide ? WIDE(T) : 1) * N * (2 * (int64_t)sizeof(T) + 1))); \
        if (!work)                                                                        \
            return -1;                                                                    \
        bad = (wide && run_##X(prog, count, N, (T)sat, (int32_t)lim, wide, x, rev, out, work)) \
              || (frames > wide && run_##T(prog, count, N, (T)sat, (int32_t)lim, frames - wide, \
                                           x + wide * N, rev, out + wide * N, work));    \
        free(work);                                                                       \
        return bad;                                                                       \
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

/* The float F and G of the engine's linked float plans (their REP, rep_rows,
 * follows g_rows), over `rows` frames of its (B, 2^s) stage buffers: row r of
 * a step's input holds the halves a and b, `size` values each, at in +
 * 2*size*r, and its output row starts at out + size*r; G reads row r's left
 * decisions at left + n*r, in the (B, N) decision array, and G-0R passes left
 * NULL.  The values are the kernels' f_op and g_op: G is b - a where the left
 * decision is 1, else b + a, with no clip; within the float limit no G
 * overflows.  A zero's sign may differ from numpy's; no decision reads it. */
F_OF(double)

void f_rows(const double *in, double *out, int64_t rows, int64_t size)
{
    for (int64_t r = 0; r < rows; r++)
        f_double(in + 2 * size * r, in + 2 * size * r + size, out + size * r, size);
}

void g_rows(const double *in, const uint8_t *left, double *out, int64_t rows, int64_t size,
            int64_t n)
{
    for (int64_t r = 0; r < rows; r++) {
        const double *restrict a = in + 2 * size * r, *restrict b = a + size;
        double *restrict o = out + size * r;
        if (!left) {
            for (int64_t i = 0; i < size; i++)
                o[i] = b[i] + a[i];
            continue;
        }
        const uint8_t *restrict l = left + n * r;
        for (int64_t i = 0; i < size; i++)
            o[i] = b[i] + (l[i] ? -a[i] : a[i]);
    }
}

/* The same F and G at the root, whose rows are the input's, read where they
 * lie, in transmission order: with rev the bit-reversal permutation of the
 * N = 2*size values of a row, the natural-order values i and i + size of row
 * r are in[rev[i]] and in[rev[i] + 1], at in + N*r, so REV_TILES reads each
 * run of 8 pairs whole.  G's left decisions are at left + N*r.  Each value
 * read is checked against the float limit: they return 1 where one is
 * outside [-lim, lim], NaN included.  Separate entries, as each argument
 * adds to a ctypes call, and the stage steps run ~200 times a B = 1 call. */
#define ROOT_FETCH(k)                                                                     \
    if (r + 1 < rows) {                                                                   \
        PREFETCH(in + 2 * size + 16 * (k));                                               \
        PREFETCH(in + 2 * size + 16 * (k) + 8);                                           \
    }
#define ROOT_ROWS(STEP)                                                                   \
    int64_t bad = 0;                                                                      \
    for (int64_t r = 0; r < rows; r++, in += 2 * size, out += size) {                     \
        REV_TILES(size, ROOT_FETCH, STEP)                                                 \
    }                                                                                     \
    return bad;
#define PAIR(j)                                                                           \
    double a = in[j], b = in[(j) + 1];                                                    \
    bad |= !(fabs(a) <= lim) | !(fabs(b) <= lim)

int64_t f_root(const double *in, const int64_t *rev, double *out, int64_t rows, int64_t size,
               double lim)
{
#define STEP(i, j) { PAIR(j); out[i] = f1_double(a, b); }
    ROOT_ROWS(STEP)
#undef STEP
}

/* a, negated where d is 1, with no branch (a branch on random decisions
   mispredicts): the sign bit flipped, which is -a */
static double flip(double a, uint8_t d)
{
    uint64_t u;
    memcpy(&u, &a, sizeof u);
    u ^= (uint64_t)d << 63;
    memcpy(&a, &u, sizeof u);
    return a;
}

int64_t g_root(const double *in, const int64_t *rev, const uint8_t *left, double *out,
               int64_t rows, int64_t size, double lim)
{
    if (!left) {
#define STEP(i, j) { PAIR(j); out[i] = b + a; }
        ROOT_ROWS(STEP)
#undef STEP
    }
#define STEP(i, j) { PAIR(j); out[i] = b + flip(a, left[2 * size * r + (i)]); }
    ROOT_ROWS(STEP)
#undef STEP
}

/* REP in SC's order: each row of `size` values at v + size*r adds its halves
 * in place as G-0R does, b + a, until one value is left, and sets the row's
 * `size` decisions at dst + n*r to 1 where that value is < 0. */
void rep_rows(double *v, uint8_t *dst, int64_t rows, int64_t size, int64_t n)
{
    for (int64_t r = 0; r < rows; r++, v += size, dst += n) {
        for (int64_t h = size / 2; h > 0; h /= 2)
            for (int64_t i = 0; i < h; i++)
                v[i] = v[h + i] + v[i];
        memset(dst, v[0] < 0, (size_t)size);
    }
}

/* The polar transform of a row of 64-bit words: the stages h < 64 within each
 * word, where bit i of each 2h-bit block takes bit i + h, and the others
 * across words, where word j of each 2g-word block takes word j + g */
static void transform(uint64_t *w, int64_t words)
{
    static const uint64_t M[6] = {0x5555555555555555u, 0x3333333333333333u,
                                  0x0F0F0F0F0F0F0F0Fu, 0x00FF00FF00FF00FFu,
                                  0x0000FFFF0000FFFFu, 0x00000000FFFFFFFFu};
    for (int64_t j = 0; j < words; j++)
        for (int s = 0; s < 6; s++)
            w[j] ^= (w[j] >> (1 << s)) & M[s];
    for (int64_t g = 1; g < words; g *= 2)
        for (int64_t b = 0; b < words; b += 2 * g)
            for (int64_t j = b; j < b + g; j++)
                w[j] ^= w[j + g];
}

/* Bytes p[0..8) as a little-endian word (compilers merge the loads) */
static uint64_t load8(const uint8_t *p)
{
    return (uint64_t)p[0] | (uint64_t)p[1] << 8 | (uint64_t)p[2] << 16 | (uint64_t)p[3] << 24
           | (uint64_t)p[4] << 32 | (uint64_t)p[5] << 40 | (uint64_t)p[6] << 48
           | (uint64_t)p[7] << 56;
}

/* The moves of a deposit of the low bits of a word at the set bits of m
 * (Hacker's Delight, 7-5): move[i] marks the bits that shift up by 2^i */
static void deposit_moves(uint64_t m, uint64_t *move)
{
    uint64_t mk = ~m << 1; /* counts the zeros to the right of each bit */
    for (int i = 0; i < 6; i++) {
        uint64_t mp = mk ^ (mk << 1);
        for (int s = 2; s < 64; s *= 2)
            mp ^= mp << s;
        move[i] = mp & m;
        m = (m ^ move[i]) | (move[i] >> (1 << i));
        mk &= ~mp;
    }
}

/* The low popcount(m) bits of x, in order, at the set bits of m */
static uint64_t deposit(uint64_t x, uint64_t m, const uint64_t *move)
{
#ifdef __BMI2__
    (void)move;
    return _pdep_u64(x, m);
#else
    for (int i = 5; i >= 0; i--)
        x = (x & ~move[i]) | ((x << (1 << i)) & move[i]);
    return x & m;
#endif
}

/* polar.encode_systematic on `rows` rows of k bits (0/1 bytes), each held as
 * n bits in W = ceil(n / 64) words, bit i in bit i % 64 of word i / 64: pack
 * the row's bits, 8 to a multiply, deposit them at the unfrozen positions,
 * the set bits of the packed keep mask (keep = 1), transform, AND with the
 * mask, transform, and expand the words to bytes.  Its workspace holds 10 *
 * W + 2 words: per word its mask, its 6 moves and the offset of its first
 * bit in the packed row, then the row's words, and the packed row with two
 * words to spare.  Returns -1 where malloc fails, else 0. */
int64_t encode(const uint8_t *a, const uint8_t *keep, int64_t n, int64_t rows, uint8_t *out)
{
    int64_t W = (n + 63) / 64, k = 0;
    /* zeroed, as the packed row's spare words must be: a word's reads may pass the row's end */
    uint64_t *mask = calloc((size_t)(10 * W + 2), 8);
    if (!mask)
        return -1;
    uint64_t *move = mask + W, *off = move + 6 * W, *w = off + W, *packed = w + W;
    for (int64_t i = 0; i < n; i++)
        mask[i / 64] |= (uint64_t)(keep[i] & 1) << i % 64;
    for (int64_t j = 0; j < W; j++) {
        deposit_moves(mask[j], move + 6 * j);
        off[j] = (uint64_t)k;
        for (uint64_t m = mask[j]; m; m &= m - 1)
            k++;
    }
    for (int64_t r = 0; r < rows; r++, a += k, out += n) {
        /* (x & 0x01...01) * 0x0102...80 >> 56 gathers bit 0 of each byte of x */
        for (int64_t t = 0; t < k; t += 64) {
            uint64_t v = 0;
            int64_t e = k - t < 64 ? k - t : 64, i = 0;
            for (; i + 8 <= e; i += 8)
                v |= ((load8(a + t + i) & 0x0101010101010101u) * 0x0102040810204080u) >> 56 << i;
            for (; i < e; i++)
                v |= (uint64_t)(a[t + i] & 1) << i;
            packed[t / 64] = v;
        }
        for (int64_t j = 0; j < W; j++) {
            uint64_t o = off[j], x = packed[o / 64] >> o % 64;
            if (o % 64)
                x |= packed[o / 64 + 1] << (64 - o % 64);
            w[j] = deposit(x, mask[j], move + 6 * j);
        }
        transform(w, W);
        for (int64_t j = 0; j < W; j++)
            w[j] &= mask[j];
        transform(w, W);
        if (n < 8) {
            for (int64_t i = 0; i < n; i++)
                out[i] = (w[0] >> i) & 1;
            continue;
        }
        /* 8 bits to 8 bytes: each byte of a copy keeps its own bit, and + 0x7F
           carries a set bit to bit 7 */
        for (int64_t i = 0; i < n; i += 8) {
            uint64_t y = ((w[i / 64] >> i % 64 & 0xFF) * 0x0101010101010101u) & 0x8040201008040201u;
            y = ((y + 0x7F7F7F7F7F7F7F7Fu) >> 7) & 0x0101010101010101u;
            for (int e = 0; e < 8; e++) /* compilers merge the stores */
                out[i + e] = (uint8_t)(y >> 8 * e);
        }
    }
    free(mask);
    return 0;
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

#define PCG64_MULT (((u128)0x2360ED051FC65DA4u << 64) | 0x4385DF649FCCF645u)

/* The LCG's n-step map, s -> mult * s + plus (Brown 1994, as numpy's
   pcg64_advance computes it) */
static void lcg_jump(u128 inc, uint64_t n, u128 *mult, u128 *plus)
{
    u128 m = PCG64_MULT, c = inc;
    *mult = 1, *plus = 0;
    for (; n; n >>= 1) {
        if (n & 1)
            *mult *= m, *plus = *plus * m + c;
        c *= m + 1;
        m *= m;
    }
}

/* PCG64's output (O'Neill 2014): XSL-RR of the state after the step */
static uint64_t xsl_rr(u128 s)
{
    uint64_t v = (uint64_t)(s >> 64) ^ (uint64_t)s;
    unsigned rot = (unsigned)(s >> 122);
    return (v >> rot) | (v << ((64 - rot) & 63));
}

/* The generator's words, FILL at a time.  Four interleaved LCG chains fill the
   buffer: chain j holds the state of word 4i + j of the fill and steps four
   words at once, by a^4 and c (a^3 + a^2 + a + 1), so the 128-bit multiplies
   of a round overlap where one chain waits on each.  A fill keeps the 0-3
   words a group of four left unread */
#define FILL 512
typedef struct {
    u128 start, inc, chain[4], mult4, plus4;
    uint64_t filled;  /* words filled since the draw began */
    int64_t pos, len; /* the next word, the words held */
    uint64_t buf[FILL + 3];
} stream_t;

/* A stream from the generator's state words */
static void stream_open(stream_t *st, const uint64_t *pcg)
{
    u128 s = st->start = (u128)pcg[0] << 64 | pcg[1];
    st->inc = (u128)pcg[2] << 64 | pcg[3];
    lcg_jump(st->inc, 4, &st->mult4, &st->plus4);
    for (int j = 0; j < 4; j++)
        st->chain[j] = s = s * PCG64_MULT + st->inc;
    st->filled = 0;
    st->pos = st->len = 0;
}

static void stream_fill(stream_t *st)
{
    int64_t keep = st->len - st->pos;
    u128 c0 = st->chain[0], c1 = st->chain[1], c2 = st->chain[2], c3 = st->chain[3];
    u128 mult = st->mult4, plus = st->plus4;
    memmove(st->buf, st->buf + st->pos, (size_t)keep * 8);
    for (uint64_t *w = st->buf + keep, *end = w + FILL; w < end; w += 4) {
        w[0] = xsl_rr(c0), w[1] = xsl_rr(c1), w[2] = xsl_rr(c2), w[3] = xsl_rr(c3);
        c0 = c0 * mult + plus, c1 = c1 * mult + plus;
        c2 = c2 * mult + plus, c3 = c3 * mult + plus;
    }
    st->chain[0] = c0, st->chain[1] = c1, st->chain[2] = c2, st->chain[3] = c3;
    st->filled += FILL;
    st->pos = 0;
    st->len = keep + FILL;
}

/* The generator's state after the words read, reached from the state the draw
   began at by one jump, into its state words */
static void stream_close(const stream_t *st, uint64_t *pcg)
{
    u128 mult, plus, s;
    lcg_jump(st->inc, st->filled - (uint64_t)(st->len - st->pos), &mult, &plus);
    s = mult * st->start + plus;
    pcg[0] = (uint64_t)(s >> 64);
    pcg[1] = (uint64_t)s;
}

/* The one shim numpy's normal draw runs behind: each next_uint64 reads the
   stream's next word, filling where none is left */
static uint64_t stream_next(void *p)
{
    stream_t *st = p;
    if (st->pos == st->len)
        stream_fill(st);
    return st->buf[st->pos++];
}

static double stream_double(void *p) { return (double)(stream_next(p) >> 11) * 0x1p-53; }

/* numpy's normal draw from the stream's next word on */
static double normal(stream_t *st)
{
    bitgen_t bg = {st, stream_next, NULL, stream_double, NULL};
    return random_standard_normal(&bg);
}

static double wi[256];
static uint64_t ki[256];

/* Reads numpy's ziggurat tables through its own function: the word with index
   idx and magnitude 1 gives wi[idx], and ki[idx] is the least magnitude that
   leaves the fast path, which reads one word only.  A probe's stream holds its
   word, then three words 1 << 63, which read as a next_uint64 give 0.0 at once
   and as a next_double give 0.5, and end the tail: it reads at most those four
   words, and never fills */
void normal_tables(void)
{
    stream_t probe = {.len = 4};
    probe.buf[1] = probe.buf[2] = probe.buf[3] = (uint64_t)1 << 63;
    for (uint64_t idx = 0; idx < 256; idx++) {
        uint64_t lo = 0, hi = (uint64_t)1 << 52;
        probe.buf[0] = 1 << 9 | idx, probe.pos = 0;
        wi[idx] = normal(&probe);
        while (lo < hi) {
            uint64_t mid = lo + (hi - lo) / 2;
            probe.buf[0] = mid << 9 | idx, probe.pos = 0;
            normal(&probe);
            if (probe.pos == 1)
                lo = mid + 1;
            else
                hi = mid;
        }
        ki[idx] = lo;
    }
}

/* simulate.awgn_bpsk_llr's LLR of noise z on bit x, rounded as numpy's four
   passes round it (the build turns off FMA contraction) */
static double channel_llr(double z, int8_t x, double sigma, double sigma2)
{
    return ((z * sigma + (int8_t)(1 - 2 * x)) * 2.0) / sigma2;
}

/* The ziggurat's fast path (Marsaglia & Tsang 2000) on words w[0..n), n <= 4,
 * into the LLRs of bits x[0..n): z is the word's 52-bit magnitude times
 * wi[idx], with the sign bit XORed in, where the magnitude is below ki[idx].
 * Returns the first lane whose word misses, or n; lanes from that one on may
 * be written, and are written again.  The x86-64-v3 build runs four lanes in
 * AVX2: table gathers, the exact int64 -> double of a magnitude below 2^52
 * through the 2^52 bias, and the channel's separate multiply, add, multiply
 * and divide */
static int64_t fast_path(const uint64_t *w, const int8_t *x, double *llr, int64_t n, double sigma,
                         double sigma2)
{
#ifdef __AVX2__
    if (n == 4) {
        const V bias = _mm256_set1_epi64x(0x4330000000000000); /* 2^52 */
        V r = _mm256_loadu_si256((const V *)w);
        V idx = _mm256_and_si256(r, _mm256_set1_epi64x(0xff));
        V mag = _mm256_and_si256(_mm256_srli_epi64(r, 9), _mm256_set1_epi64x(0xfffffffffffff));
        V hit = _mm256_cmpgt_epi64(_mm256_i64gather_epi64((const long long *)ki, idx, 8), mag);
        __m256d z = _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(mag, bias)),
                                  _mm256_castsi256_pd(bias));
        V sign = _mm256_and_si256(_mm256_slli_epi64(r, 55), _mm256_set1_epi64x(INT64_MIN));
        int32_t x4, hits;
        memcpy(&x4, x, 4);
        __m128i b = _mm_cvtsi32_si128(x4), pm = _mm_sub_epi8(_mm_set1_epi8(1), _mm_add_epi8(b, b));
        z = _mm256_mul_pd(z, _mm256_i64gather_pd(wi, idx, 8));
        z = _mm256_xor_pd(z, _mm256_castsi256_pd(sign));
        z = _mm256_add_pd(_mm256_mul_pd(z, _mm256_set1_pd(sigma)),
                          _mm256_cvtepi32_pd(_mm_cvtepi8_epi32(pm)));
        z = _mm256_div_pd(_mm256_mul_pd(z, _mm256_set1_pd(2.0)), _mm256_set1_pd(sigma2));
        _mm256_storeu_pd(llr, z);
        hits = _mm256_movemask_pd(_mm256_castsi256_pd(hit));
        /* a branch, not a count alone: where all four hit, as ~95% of groups
           do, the next group's loads need not wait for this one's gathers */
        return hits == 15 ? 4 : __builtin_ctz((unsigned)~hits);
    }
#endif
    for (int64_t j = 0; j < n; j++) {
        uint64_t r = w[j], idx = r & 0xff, mag = (r >> 9) & 0xfffffffffffffu, b;
        double z = (double)(int64_t)mag * wi[idx];
        if (mag >= ki[idx])
            return j;
        memcpy(&b, &z, 8);
        b ^= (r << 55) & ((uint64_t)1 << 63);
        memcpy(&z, &b, 8);
        llr[j] = channel_llr(z, x[j], sigma, sigma2);
    }
    return n;
}

/* simulate.awgn_bpsk_llr in one pass: Generator.standard_normal's z becomes
 * the LLR ((z*sigma + (1 - 2x)) * 2) / sigma2.  The fast path runs on groups
 * of four words; the values before a group's first miss (~1.2% of words miss)
 * are kept, the missed value replays through numpy's own function, which
 * reads its further words from the stream, and the next group starts at the
 * word after them.  The last values of a draw, fewer than four, run lane by
 * lane */
void awgn(uint64_t *pcg, const int8_t *x, double *llr, int64_t m, double sigma, double sigma2)
{
    stream_t st;
    stream_open(&st, pcg);
    for (int64_t i = 0; i < m;) {
        int64_t n = m - i < 4 ? m - i : 4, f;
        if (st.len - st.pos < n)
            stream_fill(&st);
        f = fast_path(st.buf + st.pos, x + i, llr + i, n, sigma, sigma2);
        st.pos += f, i += f;
        if (f < n) {
            llr[i] = channel_llr(normal(&st), x[i], sigma, sigma2);
            i++;
        }
    }
    stream_close(&st, pcg);
}

/* Bits out[0..n), n <= 8, from the low n bytes of w: each byte's top bit */
static void spread(uint64_t w, uint8_t *out, int64_t n)
{
    uint64_t y = (w >> 7) & 0x0101010101010101u;
    for (int64_t e = 0; e < n; e++) /* compilers merge the stores */
        out[e] = (uint8_t)(y >> 8 * e);
}

/* Generator.integers(0, 2, m, dtype=np.uint8): Lemire's method over the bytes
 * of next_uint32 words, which for two values is each byte's top bit.  The
 * held high half of a word (has_uint32) gives the first four bits, whole
 * words of the stream give eight each, and a last word that gives four or
 * fewer leaves its high half held.  As in numpy, uinteger keeps the high half
 * of the last word drawn */
void bits(uint64_t *pcg, uint8_t *out, int64_t m)
{
    uint64_t w = pcg[5] << 32; /* the last word drawn */
    int64_t i = 0;
    stream_t st;
    stream_open(&st, pcg);
    if (pcg[4] && m) {
        spread(pcg[5], out, m < 4 ? m : 4);
        i = 4, pcg[4] = 0;
    }
    for (; m - i >= 8; i += 8)
        spread(w = stream_next(&st), out + i, 8);
    if (i < m) {
        spread(w = stream_next(&st), out + i, m - i);
        pcg[4] = m - i <= 4;
    }
    pcg[5] = w >> 32;
    stream_close(&st, pcg);
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
