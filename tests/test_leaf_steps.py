"""The engine's in-place leaf steps against the reference kernels.

Each case is a tiny program whose only decoding work is one leaf step (REP,
REP-SPC, ML, or the SPC half of P-0SPC / P-RSPC), alone or under rate-0
left siblings (G-0R ... COMBINE-0R).  The expected decisions are composed
from `fastssc.kernels` on the same channel values, and the inputs are the
rows where an in-place rewrite goes wrong first: ±0.0 and integer zeros,
repetition sums of exactly 0, SPC magnitude ties with odd parity (the
lowest index must flip), values at the channel limit that saturate G, and
repetition sums far beyond the working integer type.

A float program of one instruction, a leaf over the root (rep-16, rep-spc,
ml, p-0spc), runs the reference loop on every path; the cases under rate-0
left siblings reach the float plan's REP, REP-SPC, ML and P-0SPC steps.
"""

import numpy as np
import pytest

from fastssc.compiler import build_tree, compile_tree, rules_from_names
from fastssc.engine import execute
from fastssc.kernels import (
    combine_op,
    decode_ml4,
    decode_rep,
    decode_rep_spc,
    decode_spc,
    f_op,
    g_op,
)
from fastssc.polar import CodeSpec, bit_reverse_permutation
from fastssc.quantize import parse_quant


def _halves(v):
    return v[:, : v.shape[1] // 2], v[:, v.shape[1] // 2 :]


def _p0spc(v, sat):
    a, b = _halves(v)
    r = decode_spc(g_op(a, b, 0, sat))
    return np.concatenate((r, r), axis=1)


def _prspc(v, sat):
    a, b = _halves(v)
    left = decode_rep(f_op(a, b))
    return combine_op(left, decode_spc(g_op(a, b, left, sat)))


def _under_rate0(ref, depth):
    """The reference of `ref` as the right child of `depth` rate-0 left siblings."""
    if depth == 0:
        return ref

    def wrapped(v, sat):
        a, b = _halves(v)
        r = _under_rate0(ref, depth - 1)(g_op(a, b, 0, sat), sat)
        return np.concatenate((r, r), axis=1)  # COMBINE-0R

    return wrapped


# name: (N, natural-order frozen indices, rules, program, reference, leaf
# input length, rate-0 depth of the leaf input)
CASES = {
    "rep-16": (16, range(15), "all", ["REP L stage=4"], lambda v, s: decode_rep(v), 16, 0),
    "rep-under-g0r": (64, range(63), "all",
                      ["G-0R R stage=5", "G-0R R stage=4", "REP R stage=4",
                       "COMBINE-0R R stage=5", "COMBINE-0R L stage=6"],
                      _under_rate0(lambda v, s: decode_rep(v), 2), 16, 2),
    "rep-spc": (8, (0, 1, 2, 4), "all", ["REP-SPC L stage=3"], decode_rep_spc, 8, 0),
    "rep-spc-under-g0r": (16, (*range(8), 8, 9, 10, 12), "all",
                          ["G-0R R stage=3", "REP-SPC R stage=3", "COMBINE-0R L stage=4"],
                          _under_rate0(decode_rep_spc, 1), 8, 1),
    "ml": (4, (0, 2), "all", ["ML L stage=2"], lambda v, s: decode_ml4(v), 4, 0),
    "ml-under-g0r": (8, (0, 1, 2, 3, 4, 6), "all",
                     ["G-0R R stage=2", "ML R stage=2", "COMBINE-0R L stage=3"],
                     _under_rate0(lambda v, s: decode_ml4(v), 1), 4, 1),
    "p-0spc": (16, (*range(8), 8), "all", ["P-0SPC L stage=4"], _p0spc, 8, 1),
    "p-0spc-under-g0r": (32, (*range(16), *range(16, 24), 24), "all",
                         ["G-0R R stage=4", "P-0SPC R stage=4", "COMBINE-0R L stage=5"],
                         _under_rate0(_p0spc, 1), 8, 2),
    "p-rspc": (8, (0, 1, 2, 4), "rep,spc",
               ["F L stage=2", "REP L stage=2", "P-RSPC L stage=3"], _prspc, 4, 1),
    "p-rspc-16": (32, (*range(15), 16), "rep,spc",
                  ["F L stage=4", "REP L stage=4", "P-RSPC L stage=5"], _prspc, 16, 1),
}
DOMAINS = [None, "6:4:0", "7:5:1", "8:8:0", "16:12:2", "31:31:0"]


def leaf_patterns(m, one, flt, rng):
    """Adversarial leaf inputs of length m, values in [-one, one]."""
    rows = [np.zeros(m), np.full(m, one), np.full(m, -one)]
    alt = np.tile([one, -one], m // 2)  # repetition sums and ML4 scores of exactly 0
    rows += [alt, -alt, rng.permutation(alt)]
    for j in range(min(m, 4)):  # equal magnitudes, odd parity: index 0 flips
        r = np.full(m, one)
        r[m - 1 - j] = -one
        rows.append(r)
    for small in (0, 1, 0, 1, 0, 1):  # ties at the minimum, not at index 0
        r = rng.choice([-one, one], m)
        ties = rng.choice(np.arange(1, m), size=min(m - 1, 2 + rng.integers(0, 3)),
                          replace=False)
        r[ties] = small * np.sign(r[ties])
        if np.count_nonzero(r < 0) % 2 == 0:
            r[0] = -r[0]
        rows.append(r)
    rows = np.array(rows, dtype=np.float64)
    if flt:
        rows[0] = -0.0  # all negative zero
        rows = np.vstack([rows, np.where(rng.random((2, m)) < 0.5, 0.0, -0.0)])
        noise = rng.normal(0.0, 1.5, size=(40, m))
        noise[rng.random(noise.shape) < 0.1] = -0.0
        return np.vstack([rows, noise])
    return np.vstack([rows, rng.integers(-int(one), int(one) + 1, size=(40, m))])


def channel_rows(case, scheme, rng):
    N, _, _, _, _, m, depth = case
    flt = scheme is None
    one = 1.5 if flt else parse_quant(scheme).channel_limit
    leaf = leaf_patterns(m, one, flt, rng)
    reps = N // m
    zero = -0.0 if flt else 0
    # leaf values reach the leaf unchanged (zero padding) or summed over all
    # copies, which saturates G wherever 2 * channel_limit > internal_limit
    padded = np.hstack([leaf, np.full((len(leaf), N - m), zero)]) if depth else leaf
    tiled = np.tile(leaf, (1, reps))
    rows = np.vstack([padded, tiled] if reps > 1 else [padded])
    if len(rows) < 140:
        rows = np.vstack([rows, rows[: 140 - len(rows)][::-1]])
    return rows if flt else rows.astype(np.int64)


@pytest.mark.parametrize("scheme", DOMAINS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_leaf_step_matches_kernels(name, scheme):
    case = CASES[name]
    N, frozen, rules, ops, ref = case[:5]
    n = N.bit_length() - 1
    rev = bit_reverse_permutation(n)
    nat = np.zeros(N, dtype=bool)
    nat[list(frozen)] = True
    prog = compile_tree(build_tree(CodeSpec(frozen_mask=nat[rev]), 64, rules_from_names(rules)))
    assert [str(i) for i in prog.instructions] == ops
    q = parse_quant(scheme) if scheme else None
    sat = q.internal_limit if q else None
    rng = np.random.default_rng(sum(map(ord, name + str(scheme))))
    v = channel_rows(case, scheme, rng)  # natural (tree) order
    want = ref(v, sat)[:, rev]
    x = v[:, rev]  # transmission order
    for size, off in ((128, 0), (9, 3), (1, 0), (128, 12), (9, 120), (1, 5), (9, 0)):
        rows = slice(off, off + size)
        assert np.array_equal(execute(prog, x[rows], quant=q), want[rows]), (size, off)
    for i in range(40):  # one frame at a time, as a vector and as a batch of one
        got = execute(prog, x[i], quant=q) if i % 2 else execute(prog, x[i : i + 1], quant=q)[0]
        assert np.array_equal(got, want[i]), i
