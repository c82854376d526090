"""Batched interpreter for compiled decoder programs.

The engine is a behavioral model of the hardware datapath: per-stage alpha
buffers hold soft values, a beta memory holds the decisions, and
instructions read and write whole stage buffers.  Resource limits (P) never
change values here; they only matter to the latency estimate and the
optional debug check on modeled memory accesses.

The semantics are `_reference`'s: one loop over `Program.table`, the
compiler walk's read-only (opcode, stage, start) rows, that calls the
`kernels.py` formulas, the ones `sc_decode` uses, on (B, 2^s) stage arrays
of int64 (fixed point, G clipped to the internal limit) or float64 values,
and a natural-order (B, N) beta in which the node at (start, 2^s) owns
beta[:, start:start+2^s].  With no library (`_clib.library()` is None) both
domains run it, and the process warns once.  A float program of one
instruction or none (k = 0, R1 at k = N, or one REP, ML, REP-SPC or P-*
leaf over the root, N <= 16) runs it on the library too, after
`check_channel_llrs`, so that in a linked plan only `f_root` and `g_root`
read the root.

Fixed-point calls run in the compiled interpreter of `_cengine.c` when the
library loads (`_clib.library()`: built on first use, at the baseline ISA
level and, where its `cpu_supports_x86_64_v3()` probe passes, with
-march=x86-64-v3; see `_clib`).  It decides as the reference does, in two
instances per value type, the narrowest signed integer that holds
2*internal_limit (int8 up to W=7, int16 up to W=15, int32 up to W=31), so
G forms b +- a without widening.  The wide one decodes L = 32 / itemsize
frames at once (32 for int8), one per lane: each stage buffer holds its 2^s
values lane-innermost, as (2^s, L), and the decisions are (N, L), so F, G,
COMBINE and the hard decisions are flat loops over 2^s*L values, and REP,
SPC and ML4 reduce lane by lane with the one-frame rules.  A batch runs its
whole groups of L frames there and the rest one frame at a time on the L =
1 instance, both moved in and out through the same tiles, in a workspace of
L*(2N values + N decisions) that the decoder allocates for the call and
frees before it returns (where it cannot, `execute` raises MemoryError).
In the x86-64-v3 build the wide instance's tiles are AVX2 transposes: the
int32 channel rows pack to the working type, an unpack ladder transposes L
x L values, and each leaf's L values move in one 32-byte store; the int8
decisions come back through the same 32 x 32 byte transpose.  The load
also checks the channel range, so `execute` runs numpy's
`check_channel_llrs` over the input only for a dtype that can wrap into
range in the cast to int32 (int64, uint32, uint64), and raises its
ValueError, with its text, when the load finds a value outside.  Its plan
is that decoder, bound once to the program's table, the bit-reversal
permutation (`bit_reverse_permutation`, built once per n_bits as int64) and
the scheme, for every batch size.

Other float calls on the library run a linked plan whose heaviest steps
are its double-precision entries over the plan's buffers: `f_rows` and
`g_rows` for every F, G and G-0R and for the G inside P-R1, P-RSPC, P-01,
P-0SPC and REP-SPC (and REP-SPC's F), `rep_rows` for every REP and
REP-SPC's REP half, and `gather_uint8_t` to bring the decisions out.  The root is the call's
input: at the root, `f_root` and `g_root` stand for `f_rows` and `g_rows`.
They read the channel rows in place, in transmission order, through the bit
reversal, and check each value against the float limit of
`check_channel_llrs`, in place of its min and max pass.  Within it
no float step overflows, so F has no NaN rule.  F and G are the kernels'
formulas, with no clip, so they decide bit for bit as the reference does;
only the sign of an intermediate zero may differ, and no decision reads it.
REP sums as the kernels and SC do, adding halves, b + a, in place until one
value is left.  SPC, ML4, COMBINE and the hard decisions are in-place numpy
steps that equal the kernels.  ML4 writes out its four scores as the C
interpreter does, so a frame decides the same in any batch.

The first float call for a given batch size B and library links the
program: one walk over the table binds each instruction to its operands,
views into planned buffers or, for a C step, their addresses, and yields a
list of steps.  The plan is cached on the Program, keyed by the library
too, so a plan linked on one build never serves a call on another.  A C
step holds addresses, not arrays, so the plan holds every buffer itself.
Only `f_root` and `g_root` read the root: the root's F, G or G-0R, and the
G inside a P-R1 or P-RSPC at the root.  They are bound to the plan's
ctypes.c_void_p, which a call points at its rows and clears after them.
The first instruction, the root's F or G-0R, reads every input value, and
its check decides whether the call raises `check_channel_llrs`' ValueError.
Later calls of the same shape only run the steps and gather the decisions
into the returned array.  That array is a call's only (B, N) allocation,
unless the input needs a cast to float64 or a copy to be contiguous.  A
plan holds

- one alpha buffer of shape (B, 2^s) per stage below the root, s =
  0..n-1;
- one natural-order (B, N) beta array, one byte per decision, so COMBINE is
  an in-place XOR of a node's halves, COMBINE-0R a half copy, and merged
  and leaf steps write their slice directly;
- row scratch for the leaf steps: a (B,) parity and index, and (B, 4) ML4
  scores.

Leaf and P-* steps decode in place, with the kernels' results.  The stage
s-1 alpha buffer is free while a stage-s node closes, so P-* write their G
there, and SPC then takes its magnitudes in place, after the hard decision.
REP-SPC decides its repetition bit d first, from its F in that same
buffer, and then decodes the one parity branch d selects, as a P-RSPC.

That is about N*B*8 + N*B bytes.  The cache keeps a stack of idle plans
for each of the two most recent call shapes.  A running call takes one off
its shape's stack, linking a new plan only where the stack is empty, and
puts it back when it returns, so concurrent calls never share buffers, and
a pool of T threads decoding one shape links at most T plans.
"""

import ctypes
import threading
from functools import partial

import numpy as np

from . import _clib
from .compiler import OPS, Opcode
from .kernels import (
    ML4_CODEWORDS, combine_op, decode_ml4, decode_rep, decode_rep_spc, decode_spc, f_op,
    g_op, hd_op,
)
from .polar import bit_reverse_permutation
from .quantize import check_channel_llrs, float_limit


class EngineError(RuntimeError):
    """Execution failure, tagged with the offending program counter."""

    def __init__(self, message, pc=None):
        super().__init__(f"instruction {pc}: {message}" if pc is not None else message)
        self.pc = pc


_PLANS = threading.Lock()  # held while a call takes a plan from, or returns it to, a cache


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
    lib = _clib.library()
    if quant is None and len(program.instructions) < 2:
        lib = None  # one leaf over the root, or none: the reference loop (see _link)
    # the library's loads check the values they read, the fixed-point one as
    # int32 and the float one as float64; a dtype that those casts may change
    # is checked here
    load = np.float64 if quant is None else np.int32
    if lib is None or x.dtype.kind == "b" or not np.can_cast(x.dtype, load):
        check_channel_llrs(x, quant)
    if debug:
        for pc, ins in enumerate(program.instructions):
            _check_access(ins, program.p, pc)
    if lib is None:
        out = _reference(program, x, None if quant is None else quant.internal_limit)
    else:
        # the library's fixed-point decoder serves every batch size; the key
        # names the library, so a plan linked on one build never runs a call
        # on another.  A running call takes an idle plan of its shape off the
        # shape's stack, so concurrent calls never share buffers, and links
        # only where none is idle
        key = (x.shape[0], lib) if quant is None else (quant, lib)
        plans = program._plans
        with _PLANS:
            plan = plans[key].pop() if plans.get(key) else None
        if plan is None:
            plan = _link(program, *key) if quant is None else _bind(lib, program, quant)
        try:
            out = plan(x)
        finally:
            with _PLANS:  # the two most recent shapes stay: a run and its short last batch
                plans[key] = plans.pop(key, []) + [plan]
                for old in list(plans)[:-2]:
                    del plans[old]
    return out.reshape(lead + (program.N,)) if lead else out[0]


def _reference(program, x, sat):
    """Decode (B, N) frames with the kernels, one instruction at a time, over
    int64 (fixed point: G clips to +-sat) or float64 (B, 2^s) stage arrays:
    the semantics that the library's decoders are held to.  A node's
    decisions are its slice of one natural-order beta that starts at zero,
    so the rate-0 left sibling that G-0R, COMBINE-0R, P-01 and P-0SPC imply
    reads as the zeros it decides."""
    rev, dtype = bit_reverse_permutation(program.n_bits), np.float64 if sat is None else np.int64
    # the root: the channel rows gathered from transmission into natural order
    alpha = {program.n_bits: np.take(x, rev, axis=1).astype(dtype, copy=False)}
    beta = np.zeros(x.shape, np.uint8)
    try:
        for pc, (op, s, lo) in enumerate(program.table.tolist()):
            row, size = OPS[op], 1 << s
            if row.side is not None:
                # descent: stage s child values from the halves of the open
                # stage s+1 node; a G's left sibling is the node just before its own
                a, b = alpha[s + 1][:, :size], alpha[s + 1][:, size:]
                left = beta[:, lo - size : lo]
                alpha[s] = f_op(a, b) if op == Opcode.F else g_op(a, b, left, sat)
                continue
            values, node, half = alpha[s], beta[:, lo : lo + size], size // 2
            if op in (Opcode.COMBINE, Opcode.COMBINE_0R):
                node[:] = combine_op(node[:, :half], node[:, half:])
            elif op == Opcode.R1:
                node[:] = hd_op(values)
            elif op == Opcode.REP:
                node[:] = decode_rep(values)
            elif op == Opcode.ML:
                node[:] = decode_ml4(values)
            elif op == Opcode.REP_SPC:
                node[:] = decode_rep_spc(values, sat)
            else:  # P-*: G, decide the right child, close the node
                left = node[:, :half]
                right = g_op(values[:, :half], values[:, half:], left, sat)
                node[:] = combine_op(left, decode_spc(right) if row.parity else hd_op(right))
    except Exception as exc:
        raise EngineError(str(exc), pc=pc) from exc
    return np.take(beta, rev, axis=1)


def _run(lib, first, steps, alpha, beta, inp, rev, x):
    """One call of a linked float plan.  first, the root's F or G-0R, reads
    every input value first and returns 1 where one is outside the float
    limit; the rest are steps.  The plan's arguments hold every buffer whose
    address a C step holds: the stage buffers alpha and the decisions beta."""
    # channel vectors arrive in transmission (bit-reversed) order; the root
    # readers read them there, and the instruction schedule walks the
    # natural-order tree
    x = np.ascontiguousarray(x, np.float64)
    inp.value = x.ctypes.data
    pc = 0
    try:
        bad = first()
        if not bad:
            for pc, step in enumerate(steps, 1):
                step()
    except Exception as exc:
        raise EngineError(str(exc), pc=pc) from exc
    finally:
        inp.value = None  # the cached plan keeps no address of a freed input
    if bad:
        check_channel_llrs(x, None)  # raises its ValueError
    out = np.empty(beta.shape, np.uint8)
    lib.gather_uint8_t(beta.ctypes.data, rev.ctypes.data, out.ctypes.data, *beta.shape)
    return out


def _link(program, batch, lib):
    """Bind every instruction of a float plan of two or more instructions
    (execute runs the others on the reference loop) to freshly planned
    buffers: every F and G (G-0R, the merged steps' G and REP-SPC's F
    included) and every REP (REP-SPC's included) is the library's f_rows,
    g_rows or rep_rows over the buffers' addresses; the rest are numpy steps.
    The root is the call's input, read through the address that inp holds
    by f_root and g_root alone: the root's F, G and G-0R, and the G of a
    P-R1 or P-RSPC at the root.  The first instruction is the root's F or
    G-0R."""
    n, N = program.n_bits, program.N
    alpha = [np.empty((batch, 1 << s)) for s in range(n)]  # the stages below the root
    beta = np.zeros((batch, N), np.bool_)
    # row scratch of the leaf steps
    rows = (np.empty(batch, np.uint8), np.empty(batch, np.intp), np.arange(batch))
    scores = np.empty((batch, 4))
    # a Python float: ctypes converts an np.float64 argument ~10x slower
    inp, rev, lim = ctypes.c_void_p(), bit_reverse_permutation(n), float(float_limit(N))

    def f(s, out):
        """F of the halves of stage s's rows into out; at the root, of the
        input's, through the bit reversal."""
        if s == n:
            return partial(lib.f_root, inp, rev.ctypes.data, out.ctypes.data, batch,
                           out.shape[1], lim)
        return partial(lib.f_rows, alpha[s].ctypes.data, out.ctypes.data, batch, out.shape[1])

    def g(s, left, out):
        """G of the halves of stage s's rows into out, left the decided left
        sibling (None: G-0R); at the root, of the input's."""
        left = None if left is None else left.ctypes.data
        if s == n:
            return partial(lib.g_root, inp, rev.ctypes.data, left, out.ctypes.data, batch,
                           out.shape[1], lim)
        return partial(lib.g_rows, alpha[s].ctypes.data, left, out.ctypes.data, batch,
                       out.shape[1], N)

    def rep(values, dst):
        """REP of values' rows, halved in place, into the decisions dst."""
        return partial(lib.rep_rows, values.ctypes.data, dst.ctypes.data, batch,
                       values.shape[1], N)

    steps = []
    for op, s, lo in program.table.tolist():
        op, row, size = Opcode(op), OPS[op], 1 << s
        if row.side is not None:
            # descent: stage s child values from the open stage s+1 node
            if op is Opcode.F:
                steps.append(f(s + 1, alpha[s]))
            else:
                left = None if row.zero_left else beta[:, lo - size : lo]  # the left sibling
                steps.append(g(s + 1, left, alpha[s]))
            continue
        mid, hi = lo + size // 2, lo + size
        node, left, right = beta[:, lo:hi], beta[:, lo:mid], beta[:, mid:hi]
        # a node closes with the XOR of its halves, or a copy where the left is rate 0
        close = (partial(np.copyto, left, right) if row.zero_left
                 else partial(np.bitwise_xor, left, right, out=left))
        if op in (Opcode.COMBINE, Opcode.COMBINE_0R):
            steps.append(close)
        elif op is Opcode.R1:
            steps.append(partial(np.less, alpha[s], 0, node))
        elif op is Opcode.ML:
            steps.append(partial(_ml4, alpha[s], node, scores, rows[1]))
        elif op is Opcode.REP:
            steps.append(rep(alpha[s], node))
        else:
            # P-* and REP-SPC: G into the free stage s-1 buffer, decide the
            # right child, close the node; REP-SPC first decides its left
            # half, a REP of its F in that same buffer
            values = alpha[s - 1]
            if row.parity:
                decide = partial(_spc, values, right, *rows)
            else:
                decide = partial(np.less, values, 0, out=right)
            merged = [g(s, None if row.zero_left else left, values), decide, close]
            if op is Opcode.REP_SPC:
                merged[:0] = [f(s, values), rep(values, left)]
            steps.append(partial(_seq, *merged))
    return partial(_run, lib, steps.pop(0), steps, alpha, beta, inp, rev)


def _bind(lib, program, quant):
    """The fixed-point plan on the library: its decoder for the working type,
    the narrowest signed integer that holds b +- a unclipped, bound to the
    program's table, the permutation and the scheme."""
    sat, table = quant.internal_limit, program.table
    dtype = np.min_scalar_type(-2 * sat)
    entry = partial(getattr(lib, f"decode_{dtype.name}_t"), table.ctypes.data, len(table),
                    bit_reverse_permutation(program.n_bits).ctypes.data, program.n_bits, sat,
                    quant.channel_limit)
    return partial(_run_c, entry, quant, table)


def _run_c(entry, quant, table, x):
    """Decode (B, N) integer frames in the compiled interpreter, which
    allocates its own workspace and whose load checks that the int32 values
    are in the channel range.  The plan holds the table whose address entry
    holds; the permutation's is held by its cache."""
    x = np.ascontiguousarray(x, np.int32)  # exact, or checked before (see execute)
    out = np.empty(x.shape, np.uint8)
    status = entry(len(x), x.ctypes.data, out.ctypes.data)
    if status < 0:
        raise MemoryError("the compiled decoder could not allocate its workspace")
    if status:
        check_channel_llrs(x, quant)  # raises its ValueError
    return out


def _spc(values, dst, parity, least, frames):
    """Wagner SPC, equals decode_spc: flip the lowest-index least |value| on
    odd parity.  values, the free stage buffer that holds the G, is left
    holding the magnitudes."""
    np.less(values, 0, out=dst)
    np.bitwise_xor.reduce(dst.view(np.uint8), axis=1, out=parity)
    np.abs(values, out=values)
    np.argmin(values, axis=1, out=least)
    dst[frames, least] ^= parity.view(np.bool_)


def _seq(*steps):
    """Run the steps of a merged instruction."""
    for step in steps:
        step()


def _ml4(values, dst, scores, pick):
    """Correlation ML, equals decode_ml4: the earliest best of the four
    candidates' scores s + t, -(s + t), s - t and t - s, with s and t the
    sums of the halves."""
    st = scores[:, 1::2]  # s and t, then -(s + t) and -(s - t) = t - s
    np.add.reduce(values.reshape(-1, 2, 2), axis=2, out=st)
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
