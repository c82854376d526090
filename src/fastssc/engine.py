"""Batched interpreter for compiled decoder programs.

The engine is a behavioral model of the hardware datapath: per-stage alpha
buffers hold soft values, a beta memory holds the decisions, and
instructions read and write whole stage buffers.  All buffers carry a
leading frame axis, so one pass decodes a batch.  Resource limits (P) never
change values here; they only matter to the latency estimate and the
optional debug check on modeled memory accesses.

The first call for a given batch size B and saturation limit (which also
fixes the value type) links the program: one walk over the instructions
binds each one to its operands, views into planned buffers, and yields a
list of steps.  The plan is cached on the Program; later calls of the same
shape only gather the input straight into the plan, run the steps and
gather the decisions into the returned array.  That array is a call's only
(B, N) allocation, unless the input needs a cast to the working dtype.  A
plan holds

- one alpha buffer of shape (B, 2^s) per stage s = 0..n, alpha[n] being
  the channel vector in natural (tree) order;
- one flat scratch buffer of B*N/2 values, the temporary of F.  An F whose
  (B, 2^s) output is larger than _F_BLOCK_BYTES (256 KB) is one step over
  blocks of rows that fit it, and uses only the first block's worth of the
  scratch, so its four passes run in L2 rather than DRAM;
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

That is about (2N + N/2)*B*itemsize + N*B bytes.  Only the plan of the most
recent call shape is kept, and a running call takes it out of the cache, so
concurrent calls never share buffers.

Values are float64 in the float domain.  In fixed point they use the
narrowest signed integer that holds 2*internal_limit (int8 up to W=7, int16
up to W=15, int32 up to W=31), so G forms b +- a without widening and then
clips in place.
"""

from functools import partial

import numpy as np

from .compiler import Opcode
# The steps inline the kernels' formulas; the kernel names stay importable
# here for tracers that wrap this module's kernel names.
from .kernels import (  # noqa: F401
    ML4_CODEWORDS, combine_op, decode_ml4, decode_rep, decode_rep_spc, decode_spc, f_op,
    g_op, hd_op,
)
from .polar import bit_reverse_permutation


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
        Finite floats, or already-quantized integers when quant is given.
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
    if quant is not None:
        if not np.issubdtype(x.dtype, np.integer):
            raise ValueError("fixed-point decoding expects integer channel LLRs")
        lim = quant.channel_limit
        if x.size and (int(x.min()) < -lim or int(x.max()) > lim):
            raise ValueError(f"channel LLRs exceed the +-{lim} channel range")
        sat = quant.internal_limit
    else:
        # min and max carry any NaN or infinity, with no (B, N) mask
        if x.size and not (np.isfinite(x.min()) and np.isfinite(x.max())):
            raise ValueError("channel LLRs must be finite (found NaN or infinity)")
        sat = None
    if debug:
        for pc, ins in enumerate(program.instructions):
            _check_access(ins, program.p, pc)
    key = (x.shape[0], sat)
    plans = program._plans
    plan = plans.pop(key, None)
    if plan is None:
        plan = _link(program, *key)
    try:
        out = _run(plan, x)
    finally:
        plans.clear()
        plans[key] = plan
    return out.reshape(lead + (program.N,)) if lead else out[0]


def _run(plan, x):
    steps, root, beta, rev = plan
    # channel vectors arrive in transmission (bit-reversed) order; the
    # instruction schedule walks the natural-order tree.  rev is a
    # permutation, so mode="clip" never clips; mode="raise" would gather into
    # a buffered copy of root first
    np.take(x.astype(root.dtype, copy=False), rev, axis=1, out=root, mode="clip")
    try:
        for pc, step in enumerate(steps):
            step()
    except Exception as exc:
        raise EngineError(str(exc), pc=pc) from exc
    return np.take(beta, rev, axis=1).view(np.uint8)


def _link(program, batch, sat):
    """Bind every instruction to views of freshly planned buffers."""
    n = program.n_bits
    # fixed point: the narrowest signed integer that holds b +- a unclipped
    dtype = np.dtype(np.float64) if sat is None else np.min_scalar_type(-2 * sat)
    alpha = [np.empty((batch, 1 << s), dtype) for s in range(n + 1)]
    scratch = np.empty(batch << (n - 1), dtype)
    beta = np.zeros((batch, 1 << n), np.bool_)
    minus2 = dtype.type(-2)
    bounds = None if sat is None else (dtype.type(-sat), dtype.type(sat))
    # row scratch of the leaf steps; sums are unsaturated, as in the kernels
    acc = np.empty((batch, 1), np.float64 if sat is None else np.int64)
    d = np.empty((batch, 1), np.bool_)
    rows = (np.empty(batch, np.uint8), np.empty(batch, np.intp), np.arange(batch))
    scores = np.empty((batch, 4), acc.dtype)
    signs = (1 - 2 * ML4_CODEWORDS.astype(np.int64)).T.astype(acc.dtype)

    def tmp(size):  # F's temporary; also free for leaf and P-* steps
        return scratch[: batch * size].reshape(batch, size)

    start = [0] * (n + 1)  # first leaf index of the open node at each stage
    steps = []
    for ins in program.instructions:
        op, s = ins.op, ins.stage
        size = 1 << s
        if op is Opcode.F or op is Opcode.G or op is Opcode.G_0R:
            # descent: stage s child values from the open stage s+1 node
            parent = start[s + 1]
            a, b = alpha[s + 1][:, :size], alpha[s + 1][:, size:]
            if op is Opcode.F:
                start[s] = parent
                block, t = max(1, _F_BLOCK_BYTES // (size * dtype.itemsize)), tmp(size)
                fs = [partial(_f, a[i : i + block], b[i : i + block], alpha[s][i : i + block],
                              t[: min(block, batch - i)]) for i in range(0, batch, block)]
                # narrow: _f itself; wide: one step over blocks that share the first rows of t
                steps.append(fs[0] if len(fs) == 1 else partial(_seq, *fs))
            else:
                start[s] = parent + size
                left = beta[:, parent : parent + size] if op is Opcode.G else None
                steps.append(partial(_g, a, b, left, alpha[s], minus2, bounds))
            continue
        lo, mid, hi = start[s], start[s] + size // 2, start[s] + size
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
            steps.append(partial(_ml4, alpha[s], node, scores, signs, rows[1]))
        else:
            # P-* and REP-SPC: G into the free stage s-1 buffer, decide the
            # right child, close the node; REP-SPC first decides its left
            # half, a REP of F
            a, b, values = alpha[s][:, : size // 2], alpha[s][:, size // 2 :], alpha[s - 1]
            if op in (Opcode.P_RSPC, Opcode.P_0SPC, Opcode.REP_SPC):
                decide = partial(_spc, values, right, tmp(size // 2), *rows)
            else:
                decide = partial(np.less, values, 0, out=right)
            merged_left = None if op in (Opcode.P_01, Opcode.P_0SPC) else left
            step = partial(_merged, a, b, merged_left, values, minus2, bounds, decide, left, right)
            if op is Opcode.REP_SPC:
                step = partial(_seq, partial(_f, a, b, tmp(4), values),
                               partial(_rep, tmp(4), left, acc, d), step)
            steps.append(step)
    return steps, alpha[n], beta, bit_reverse_permutation(n)


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


def _merged(a, b, beta_l, values, minus2, bounds, decide, left, right):
    """P-R1 / P-RSPC / REP-SPC (beta_l is the decided left half) and P-01 /
    P-0SPC (beta_l None): G into values, decide() the right half, close."""
    _g(a, b, beta_l, values, minus2, bounds)
    decide()
    if beta_l is None:
        np.copyto(left, right)
    else:
        np.bitwise_xor(left, right, out=left)


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


def _ml4(values, dst, scores, signs, pick):
    """Correlation ML, equals decode_ml4: the earliest best of the four candidates."""
    np.matmul(values, signs, out=scores)
    np.argmax(scores, axis=1, out=pick)
    np.take(ML4_CODEWORDS.view(np.bool_), pick, axis=0, out=dst, mode="clip")


def _check_access(ins, p, pc):
    """Modeled memory discipline: at most 2P soft reads per cycle."""
    op, s = ins.op, ins.stage
    size = 1 << s
    if op is Opcode.F or op is Opcode.G or op is Opcode.G_0R:
        reads, steps = 2 * size, max(1, size // p)
    elif op in (Opcode.COMBINE, Opcode.COMBINE_0R):
        return
    elif op is Opcode.REP:
        reads = size
        steps = 1 if size <= 2 * p else size // (2 * p)
    elif op is Opcode.REP_SPC or op is Opcode.ML:
        reads, steps = size, 1
    else:  # P-* mergers and R1 read the node's alpha during the g phase
        reads, steps = size, max(1, size // (2 * p))
    if reads > steps * 2 * p:
        raise EngineError(
            f"{ins} reads {reads} values in {steps} cycles, over the 2P={2 * p} limit",
            pc=pc,
        )
