"""Batched interpreter for compiled decoder programs.

The engine is a behavioral model of the hardware datapath: per-stage alpha
buffers hold soft values, a beta memory holds the decisions, and
instructions read and write whole stage buffers.  Resource limits (P) never
change values here; they only matter to the latency estimate and the
optional debug check on modeled memory accesses.

Fixed-point calls run in the compiled interpreter of `_cengine.c` when the
library loads (`_clib.library()`: built on first use, at the baseline ISA
level and, where its `cpu_supports_x86_64_v3()` probe passes, with
-march=x86-64-v3; see `_clib`).  It has exactly the steps below, in two
instances per value type.  The wide one decodes L = 32 / itemsize frames at
once (32 for int8), one per lane: each stage buffer holds its 2^s values
lane-innermost, as (2^s, L), and the decisions are (N, L), so F, G, COMBINE
and the hard decisions are flat loops over 2^s*L values, and REP, SPC and
ML4 reduce lane by lane with the one-frame rules.  A batch runs its whole
groups of L frames there, transposed in and out in tiles, and the rest one
frame at a time on the L = 1 instance, in a workspace of L*(2N values + N
decisions).  In the x86-64-v3 build the tiles are AVX2 transposes: the
int32 channel rows pack to the working type, an unpack ladder transposes
L x L values, and each leaf's L values move in one 32-byte store; the
int8 decisions come back through the same 32 x 32 byte transpose.  The
load also checks the channel range, so `execute` runs numpy's
`check_channel_llrs` over the input only for a dtype that can wrap into
range in the cast to int32 (int64, uint32, uint64), and raises its
ValueError, with its text, when the load finds a value outside.  Its plan
is that decoder, bound once to the program's table, the bit-reversal
permutation (built once per n_bits) and the scheme, for every batch size.

Float calls run the numpy steps below, and where the library loads, their
heaviest ones are its double-precision entries over the plan's buffers:
`f_rows` and `g_rows` for every F, G and G-0R and for the G inside P-R1,
P-RSPC, P-01, P-0SPC and REP-SPC (and REP-SPC's F), `gather_double` to bring
the input into the plan and `gather_uint8_t` to bring the decisions out.
The input gather checks each value against the float limit of
`check_channel_llrs`, in place of its min and max pass.  Within it no float
step overflows, so F has no NaN rule.  F and G are the numpy formulas, with
no clip, so they decide bit for bit as numpy's do; only the sign of an
intermediate zero may differ, and no decision reads it.  REP, SPC, ML4,
COMBINE and the hard decisions stay on numpy: their float bit-exactness
rests on numpy's pairwise REP summation order, where integer sums are exact
in any order.  ML4 writes out its four scores as the C interpreter does, so
a frame decides the same in any batch.  With no library, both domains run
on the numpy steps, with the same results, and the process warns once.

The numpy steps carry a leading frame axis on all buffers, so one pass
decodes a batch.  The first call for a given batch size B, saturation
limit (which also fixes the value type) and library (or None) links the
program: one walk over the instructions binds each one to its operands,
views into planned buffers or, for a C step, their addresses, and yields a
list of steps.  The plan is cached on the Program, keyed by the library
too, so a plan linked on one path never serves a call on the other.  A C
step holds addresses, not arrays, so the plan holds every buffer itself.
Later calls of the same shape only gather the input straight into the
plan, run the steps and gather the decisions into the returned array.
That array is a call's only (B, N) allocation, unless the input needs a
cast to float64 or the working dtype, or a copy to be contiguous for the
library's gather.  A plan holds

- one alpha buffer of shape (B, 2^s) per stage s = 0..n, alpha[n] being
  the channel vector in natural (tree) order;
- one flat scratch buffer of B*N/2 values, the temporary of numpy's F.
  Such an F whose (B, 2^s) output is larger than _F_BLOCK_BYTES (256 KB) is
  one step over blocks of rows that fit it, and uses only the first block's
  worth of the scratch, so its four passes run in L2 rather than DRAM; the
  library's F is one pass;
- one natural-order (B, N) beta array, one byte per decision.  The node at
  (start, 2^s) owns beta[:, start:start+2^s], so COMBINE is an in-place XOR
  of its halves, COMBINE-0R a half copy, and merged and leaf steps write
  their slice directly;
- row scratch for the leaf steps: a (B, 1) sum and decision, a (B,) parity
  and index, and (B, 4) ML4 scores.

Leaf and P-* steps decode in place, with the kernels' results.  The stage
s-1 alpha buffer is free while a stage-s node closes, so P-* write their G
there; SPC magnitudes go into the F scratch.  REP and REP-SPC sum without
saturation (int64 or float64); REP-SPC decides its repetition bit d first
and then decodes the one parity branch d selects, as a P-RSPC.

That is about (2N + N/2)*B*itemsize + N*B bytes.  The plans of the two
most recent call shapes are kept, and a running call takes its plan out of
the cache, so concurrent calls never share buffers.  Both paths read each
instruction's node from `Program.table`, the compiler walk's read-only
(opcode, stage, start) rows: _link binds its views from them, and the
fixed-point C decoder takes the table as it is.

Values are float64 in the float domain.  In fixed point they use the
narrowest signed integer that holds 2*internal_limit (int8 up to W=7, int16
up to W=15, int32 up to W=31), so G forms b +- a without widening and then
clips in place.
"""

from functools import cache, partial

import numpy as np

from . import _clib
from .compiler import OPS, Opcode
# The steps inline the kernels' formulas; the kernel names stay importable
# here for tracers that wrap this module's kernel names.
from .kernels import (  # noqa: F401
    ML4_CODEWORDS, combine_op, decode_ml4, decode_rep, decode_rep_spc, decode_spc, f_op,
    g_op, hd_op,
)
from .polar import bit_reverse_permutation
from .quantize import check_channel_llrs, float_limit


# An F whose (B, 2^s) output exceeds this many bytes runs over row blocks
# that fit it, so its four passes stay in L2 instead of streaming DRAM.
_F_BLOCK_BYTES = 1 << 18


class EngineError(RuntimeError):
    """Execution failure, tagged with the offending program counter."""

    def __init__(self, message, pc=None):
        super().__init__(f"instruction {pc}: {message}" if pc is not None else message)
        self.pc = pc


def execute(program, channel_llrs, quant=None, debug=False):
    """Run a program over channel LLRs; returns the codeword estimate.

    Parameters
    ----------
    program : Program
    channel_llrs : array_like, shape (..., N)
        Floats within the float limit 2^(1023 - n) (`check_channel_llrs`), or
        already-quantized integers when quant is given.
    quant : QuantScheme, optional
        Selects the saturating fixed-point domain.
    debug : bool
        Additionally assert that no instruction reads more than 2P soft
        values per modeled cycle.

    Returns
    -------
    ndarray of uint8, shape (..., N).
    """
    x = np.asarray(channel_llrs)
    if x.ndim == 0 or x.shape[-1] != program.N:
        raise ValueError(f"expected channel vectors of length {program.N}")
    lead = x.shape[:-1]
    x = x.reshape(-1, program.N)
    sat = None if quant is None else quant.internal_limit
    lib = _clib.library()
    bound = sat is not None and lib is not None
    # the library's loads check the values they read, the fixed-point one as
    # int32 and the float one as float64; a dtype that those casts may change
    # is checked here
    load = np.int32 if bound else np.float64
    if lib is None or x.dtype.kind == "b" or not np.can_cast(x.dtype, load):
        check_channel_llrs(x, quant)
    if debug:
        for pc, ins in enumerate(program.instructions):
            _check_access(ins, program.p, pc)
    # the library's fixed-point decoder serves every batch size; the key names
    # the library, so a plan linked on one path never runs a call on the other
    key = (quant, lib) if bound else (x.shape[0], sat, lib)
    plans = program._plans
    plan = plans.pop(key, None)
    if plan is None:
        plan = _bind(lib, program, quant) if bound else _link(program, *key)
    try:
        out = plan(x)
    finally:
        plans[key] = plan  # the two most recent shapes stay: a run and its short last batch
        for old in list(plans)[:-2]:
            plans.pop(old, None)
    return out.reshape(lead + (program.N,)) if lead else out[0]


@cache
def _permutation(n_bits):
    """The read-only int64 bit-reversal permutation of length 2^n_bits, built once."""
    return np.asarray(bit_reverse_permutation(n_bits), np.int64)


def _run(lib, steps, alpha, beta, scratch, x):
    """One call of a linked plan.  The plan's arguments hold every buffer whose
    address a C step holds: the stage buffers alpha, the decisions beta and
    the F scratch."""
    root, rev = alpha[-1], _permutation(len(alpha) - 1)
    # channel vectors arrive in transmission (bit-reversed) order; the
    # instruction schedule walks the natural-order tree
    if lib is None:
        # rev is a permutation, so mode="clip" never clips; mode="raise" would
        # gather into a buffered copy of root first
        np.take(x.astype(root.dtype, copy=False), rev, axis=1, out=root, mode="clip")
    else:
        x = np.ascontiguousarray(x, np.float64)
        if lib.gather_double(x.ctypes.data, rev.ctypes.data, root.ctypes.data, *root.shape,
                             float_limit(x.shape[1])):
            check_channel_llrs(x, None)  # raises its ValueError
    try:
        for pc, step in enumerate(steps):
            step()
    except Exception as exc:
        raise EngineError(str(exc), pc=pc) from exc
    if lib is None:
        return np.take(beta, rev, axis=1).view(np.uint8)
    out = np.empty(beta.shape, np.uint8)
    lib.gather_uint8_t(beta.ctypes.data, rev.ctypes.data, out.ctypes.data, *beta.shape)
    return out


def _link(program, batch, sat, lib):
    """Bind every instruction to views of freshly planned buffers.  With a
    library (float only), every F and G, G-0R, the merged steps' G and
    REP-SPC's F included, is its f_rows or g_rows over the buffers' addresses."""
    n, N = program.n_bits, program.N
    dtype = _dtype(sat)
    alpha = [np.empty((batch, 1 << s), dtype) for s in range(n + 1)]
    scratch = np.empty(batch << (n - 1), dtype)
    beta = np.zeros((batch, N), np.bool_)
    minus2 = dtype.type(-2)
    bounds = None if sat is None else (dtype.type(-sat), dtype.type(sat))
    # row scratch of the leaf steps; sums are unsaturated, as in the kernels
    acc = np.empty((batch, 1), np.float64 if sat is None else np.int64)
    d = np.empty((batch, 1), np.bool_)
    rows = (np.empty(batch, np.uint8), np.empty(batch, np.intp), np.arange(batch))
    scores = np.empty((batch, 4), acc.dtype)

    def tmp(size):  # F's temporary; also free for leaf and P-* steps
        return scratch[: batch * size].reshape(batch, size)

    def f(up, out, t):
        """F of the halves of up's rows into out; numpy's uses t, out's shape, as its temporary."""
        size = out.shape[1]
        if lib is not None:
            return partial(lib.f_rows, up.ctypes.data, out.ctypes.data, batch, size)
        a, b = up[:, :size], up[:, size:]
        block = max(1, _F_BLOCK_BYTES // (size * dtype.itemsize))
        fs = [partial(_f, a[i : i + block], b[i : i + block], out[i : i + block],
                      t[: min(block, batch - i)]) for i in range(0, batch, block)]
        # narrow: _f itself; wide: one step over blocks that share the first rows of t
        return fs[0] if len(fs) == 1 else partial(_seq, *fs)

    def g(up, left, out):
        """G of the halves of up's rows into out, left the decided left sibling (None: G-0R)."""
        size = out.shape[1]
        if lib is not None:
            return partial(lib.g_rows, up.ctypes.data, None if left is None else left.ctypes.data,
                           out.ctypes.data, batch, size, N)
        return partial(_g, up[:, :size], up[:, size:], left, out, minus2, bounds)

    steps = []
    for op, s, lo in program.table.tolist():
        op, row, size = Opcode(op), OPS[op], 1 << s
        if row.side is not None:
            # descent: stage s child values from the open stage s+1 node
            if op is Opcode.F:
                steps.append(f(alpha[s + 1], alpha[s], tmp(size)))
            else:
                left = None if row.zero_left else beta[:, lo - size : lo]  # the left sibling
                steps.append(g(alpha[s + 1], left, alpha[s]))
            continue
        mid, hi = lo + size // 2, lo + size
        node, left, right = beta[:, lo:hi], beta[:, lo:mid], beta[:, mid:hi]
        if op is Opcode.COMBINE:
            steps.append(partial(np.bitwise_xor, left, right, out=left))
        elif op is Opcode.COMBINE_0R:
            steps.append(partial(np.copyto, left, right))
        elif op is Opcode.R1:
            steps.append(partial(np.less, alpha[s], 0, out=node))
        elif op is Opcode.REP:
            steps.append(partial(_rep, alpha[s], node, acc, d))
        elif op is Opcode.ML:
            steps.append(partial(_ml4, alpha[s], node, scores, rows[1]))
        else:
            # P-* and REP-SPC: G into the free stage s-1 buffer, decide the
            # right child, close the node; REP-SPC first decides its left
            # half, a REP of F
            values = alpha[s - 1]
            if row.parity:
                decide = partial(_spc, values, right, tmp(size // 2), *rows)
            else:
                decide = partial(np.less, values, 0, out=right)
            if row.zero_left:
                merged = [g(alpha[s], None, values), decide, partial(np.copyto, left, right)]
            else:
                merged = [g(alpha[s], left, values), decide,
                          partial(np.bitwise_xor, left, right, out=left)]
            if op is Opcode.REP_SPC:
                merged[:0] = [f(alpha[s], tmp(4), values), partial(_rep, tmp(4), left, acc, d)]
            steps.append(partial(_seq, *merged))
    return partial(_run, lib, steps, alpha, beta, scratch)


def _dtype(sat):
    """float64, or in fixed point the narrowest signed integer that holds b +- a unclipped."""
    return np.dtype(np.float64) if sat is None else np.min_scalar_type(-2 * sat)


def _bind(lib, program, quant):
    """The fixed-point plan on the library: its decoder for the working type,
    bound to the program's table, the permutation and the scheme."""
    sat, table, dtype = quant.internal_limit, program.table, _dtype(quant.internal_limit)
    entry = partial(getattr(lib, f"decode_{dtype.name}_t"), table.ctypes.data, len(table),
                    _permutation(program.n_bits).ctypes.data, program.n_bits, sat,
                    quant.channel_limit)
    work = lib.lanes(dtype.itemsize) * program.N * (2 * dtype.itemsize + 1)
    return partial(_run_c, entry, work, quant, table)


def _run_c(entry, work, quant, table, x):
    """Decode (B, N) integer frames in the compiled interpreter, whose load
    checks that the int32 values are in the channel range.  The plan holds the
    table whose address entry holds; the permutation's is held by its cache."""
    x = np.ascontiguousarray(x, np.int32)  # exact, or checked before (see execute)
    out = np.empty(x.shape, np.uint8)
    work = np.empty(work, np.uint8)
    if entry(len(x), x.ctypes.data, out.ctypes.data, work.ctypes.data):
        check_channel_llrs(x, quant)  # raises its ValueError
    return out


def _f(a, b, out, tmp):
    """Min-sum F, max(min(a, b), -max(a, b)): equals f_op, sign(0) = +."""
    np.minimum(a, b, out=out)
    np.maximum(a, b, out=tmp)
    np.negative(tmp, out=tmp)
    np.maximum(out, tmp, out=out)


def _g(a, b, beta_l, out, minus2, bounds):
    """G, b + a*(1 - 2*beta_l), clipped to bounds (-sat, sat) when set; G-0R
    has no beta_l.  The bounds are working-dtype scalars, so np.clip converts nothing."""
    if beta_l is None:
        np.add(a, b, out=out)
    else:
        np.multiply(beta_l, minus2, out=out)
        np.add(out, 1, out=out)
        np.multiply(out, a, out=out)
        np.add(out, b, out=out)
    if bounds is not None:
        np.clip(out, *bounds, out=out)


def _spc(values, dst, mag, parity, least, frames):
    """Wagner SPC, equals decode_spc: flip the lowest-index least |value| on odd parity."""
    np.less(values, 0, out=dst)
    np.bitwise_xor.reduce(dst.view(np.uint8), axis=1, out=parity)
    np.abs(values, out=mag)
    np.argmin(mag, axis=1, out=least)
    dst[frames, least] ^= parity.view(np.bool_)


def _rep(values, dst, acc, d):
    """Repetition, equals decode_rep: the sign of the unsaturated sum, broadcast."""
    np.add.reduce(values, axis=1, dtype=acc.dtype, out=acc, keepdims=True)
    np.less(acc, 0, out=d)
    np.copyto(dst, d)


def _seq(*steps):
    for step in steps:
        step()


def _ml4(values, dst, scores, pick):
    """Correlation ML, equals decode_ml4: the earliest best of the four
    candidates' scores s + t, -(s + t), s - t and t - s, with s and t the
    unsaturated sums of the halves."""
    st = scores[:, 1::2]  # s and t, then -(s + t) and -(s - t) = t - s
    np.add.reduce(values.reshape(-1, 2, 2), axis=2, dtype=scores.dtype, out=st)
    np.add(st[:, 0], st[:, 1], out=scores[:, 0])
    np.subtract(st[:, 0], st[:, 1], out=scores[:, 2])
    np.negative(scores[:, ::2], out=st)
    np.argmax(scores, axis=1, out=pick)
    np.take(ML4_CODEWORDS.view(np.bool_), pick, axis=0, out=dst, mode="clip")


def _check_access(ins, p, pc):
    """Modeled memory discipline: at most 2P soft reads per cycle, with the
    reads and cycles of the instruction's OPS row."""
    row, size = OPS[ins.op], 1 << ins.stage
    reads, cycles = row.reads(size), row.cycles(size, p)
    if reads > 2 * p * cycles:
        raise EngineError(
            f"{ins} reads {reads} values in {cycles} cycles, over the 2P={2 * p} limit",
            pc=pc,
        )
