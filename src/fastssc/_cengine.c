/* Compiled fixed-point interpreter for fastssc decoder programs.
 *
 * fastssc.engine builds this file with the system C compiler on first use and
 * calls it through ctypes.  It runs the same steps as the engine's numpy path,
 * value for value; that path is the reference the tests compare it with.
 *
 * decode_int8_t, decode_int16_t and decode_int32_t take a program as a table of
 * (opcode, stage, node start) rows, one per instruction: Program.table, from
 * the compiler's walk.  Opcode numbers are compiler.Opcode's.  Each frame is
 * decoded on its own, in one workspace of 2N values of the working type
 * (the stage-s buffer of 2^s values at offset 2^s) and N decision bytes in
 * natural order, where the node starting at leaf `start` owns
 * beta[start, start + 2^s), so a G's left sibling ends at its start.  Soft
 * values never leave [-sat, sat], and the working type holds 2*sat, so b +- a
 * is exact before G clips it.
 */
#include <stdint.h>
#include <string.h>

enum { F, G, COMBINE, COMBINE_0R, G_0R, P_R1, P_RSPC, P_01, P_0SPC, ML, REP, REP_SPC, R1 };

/* the candidates of the length-4 ML leaf in tie-break order (kernels.ML4_CODEWORDS) */
static const uint8_t ML4[4][4] = {{0, 0, 0, 0}, {1, 1, 1, 1}, {0, 0, 1, 1}, {1, 1, 0, 0}};

static void combine(uint8_t *restrict left, const uint8_t *restrict right, int64_t m)
{
    for (int64_t i = 0; i < m; i++)
        left[i] ^= right[i];
}

/* One interpreter per working type T. */
#define INTERPRETER(T)                                                                    \
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
    }                                                                                     \
                                                                                          \
    /* Wagner SPC: on odd parity flip the lowest-index least |value| */                   \
    static void spc_##T(const T *restrict v, uint8_t *restrict dst, int64_t m)            \
    {                                                                                     \
        uint8_t parity = 0;                                                               \
        int64_t least = 0;                                                                \
        T best = v[0] < 0 ? (T)-v[0] : v[0];                                              \
        for (int64_t i = 0; i < m; i++) {                                                 \
            T mag = v[i] < 0 ? (T)-v[i] : v[i];                                           \
            dst[i] = v[i] < 0;                                                            \
            parity ^= dst[i];                                                             \
            least = mag < best ? i : least; /* selects, not a branch: minima come at random */ \
            best = mag < best ? mag : best;                                               \
        }                                                                                 \
        dst[least] ^= parity;                                                             \
    }                                                                                     \
                                                                                          \
    /* repetition: the sign of the unsaturated int64 sum, on every bit */                 \
    static void rep_##T(const T *restrict v, uint8_t *restrict dst, int64_t m)            \
    {                                                                                     \
        int64_t sum = 0;                                                                  \
        for (int64_t i = 0; i < m; i++)                                                   \
            sum += v[i];                                                                  \
        memset(dst, sum < 0, (size_t)m);                                                  \
    }                                                                                     \
                                                                                          \
    /* length-4 ML: the earliest candidate with the best int64 correlation */             \
    static void ml4_##T(const T *v, uint8_t *dst)                                         \
    {                                                                                     \
        int pick = 0;                                                                     \
        int64_t best = 0;                                                                 \
        for (int c = 0; c < 4; c++) {                                                     \
            int64_t score = 0;                                                            \
            for (int j = 0; j < 4; j++)                                                   \
                score += ML4[c][j] ? -(int64_t)v[j] : (int64_t)v[j];                      \
            if (c == 0 || score > best) {                                                 \
                best = score;                                                             \
                pick = c;                                                                 \
            }                                                                             \
        }                                                                                 \
        memcpy(dst, ML4[pick], 4);                                                        \
    }                                                                                     \
                                                                                          \
    static void frame_##T(const int64_t *prog, int64_t count, T sat, T *alpha,            \
                          uint8_t *beta)                                                  \
    {                                                                                     \
        for (const int64_t *ins = prog; ins < prog + 3 * count; ins += 3) {               \
            int64_t size = (int64_t)1 << ins[1], half = size / 2;                         \
            /* a descent reads stage s+1 and writes stage s; a closer reads stage s, */   \
            /* and the stage s-1 buffer is free for the G of a merged step */             \
            T *up = alpha + 2 * size, *node = alpha + size, *down = alpha + half;         \
            uint8_t *left = beta + ins[2], *right = left + half;                          \
            switch (ins[0]) {                                                             \
            case F: f_##T(up, up + size, node, size); break;                              \
            case G: g_##T(up, up + size, left - size, node, size, sat); break;            \
            case G_0R: g_##T(up, up + size, NULL, node, size, sat); break;                \
            case COMBINE: combine(left, right, half); break;                              \
            case COMBINE_0R: memcpy(left, right, (size_t)half); break;                    \
            case R1: hd_##T(node, left, size); break;                                     \
            case REP: rep_##T(node, left, size); break;                                   \
            case ML: ml4_##T(node, left); break;                                          \
            case REP_SPC: /* decide the repetition half from F, then a P-RSPC */          \
                f_##T(node, node + half, down, half);                                     \
                rep_##T(down, left, half);                                                \
                /* fall through */                                                        \
            case P_RSPC:                                                                  \
                g_##T(node, node + half, left, down, half, sat);                          \
                spc_##T(down, right, half);                                               \
                combine(left, right, half);                                               \
                break;                                                                    \
            case P_R1:                                                                    \
                g_##T(node, node + half, left, down, half, sat);                          \
                hd_##T(down, right, half);                                                \
                combine(left, right, half);                                               \
                break;                                                                    \
            case P_0SPC:                                                                  \
                g_##T(node, node + half, NULL, down, half, sat);                          \
                spc_##T(down, right, half);                                               \
                memcpy(left, right, (size_t)half);                                        \
                break;                                                                    \
            case P_01:                                                                    \
                g_##T(node, node + half, NULL, down, half, sat);                          \
                hd_##T(down, right, half);                                                \
                memcpy(left, right, (size_t)half);                                        \
                break;                                                                    \
            }                                                                             \
        }                                                                                 \
    }                                                                                     \
                                                                                          \
    /* Decode `frames` int32 channel vectors in transmission order into `out`;  */        \
    /* rev is the bit-reversal permutation, work holds 2N values of T + N bytes */        \
    void decode_##T(const int64_t *prog, int64_t count, int64_t n_bits, int64_t sat,      \
                    int64_t frames, const int32_t *x, const int64_t *rev, uint8_t *out,   \
                    void *work)                                                           \
    {                                                                                     \
        int64_t N = (int64_t)1 << n_bits;                                                 \
        T *alpha = work, *root = alpha + N;                                               \
        uint8_t *beta = (uint8_t *)(alpha + 2 * N);                                       \
        memset(beta, 0, (size_t)N); /* an empty (all-frozen) program decides 0s */        \
        for (int64_t f = 0; f < frames; f++, x += N, out += N) {                          \
            for (int64_t i = 0; i < N; i++)                                               \
                root[i] = (T)x[rev[i]];                                                   \
            frame_##T(prog, count, (T)sat, alpha, beta);                                  \
            for (int64_t i = 0; i < N; i++)                                               \
                out[i] = beta[rev[i]];                                                    \
        }                                                                                 \
    }

INTERPRETER(int8_t)
INTERPRETER(int16_t)
INTERPRETER(int32_t)
