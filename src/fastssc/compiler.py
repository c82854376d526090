"""Decoder-tree construction, pruning, and instruction emission.

A code's decoder tree is pruned by classifying each node against the enabled
rule set, then flattened into a linear instruction program.  The instruction
set is the hardware-style one: descent operators F / G / G-0R, closers
COMBINE / COMBINE-0R, merged single-step operators P-R1 / P-RSPC / P-01 /
P-0SPC, leaf decoders ML / REP / REP-SPC, plus R1 for the degenerate
all-information code.  An instruction carries only (opcode, side, stage);
operand addresses are implied by the depth-first walk, so a stored program
needs 5 bits per instruction in binary form.

Side and stage conventions: descent instructions carry the stage they write
(the child stage) and the side of the child; every other instruction carries
the stage and side of the node it completes.  A stage-s vector has 2^s
values.
"""

import re
import struct
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import cached_property

import numpy as np

from .polar import CodeSpec, bit_reverse_permutation


class CompileError(ValueError):
    """Raised when a tree has no expressible instruction sequence."""


class ProgramFormatError(ValueError):
    """Raised for unparsable or structurally invalid programs."""

    def __init__(self, message, line=None, pc=None):
        loc = ""
        if line is not None:
            loc = f"line {line}: "
        elif pc is not None:
            loc = f"instruction {pc}: "
        super().__init__(loc + message)
        self.line = line
        self.pc = pc


class _HeaderError(ProgramFormatError):
    """A header value the instructions contradict; the text form names the header line."""


class Opcode(IntEnum):
    F = 0
    G = 1
    COMBINE = 2
    COMBINE_0R = 3
    G_0R = 4
    P_R1 = 5
    P_RSPC = 6
    P_01 = 7
    P_0SPC = 8
    ML = 9
    REP = 10
    REP_SPC = 11
    R1 = 12


# phases of an open tree node: nothing decoded, left child decoded, both decoded
_START, _AFTER_LEFT, _AFTER_RIGHT = 0, 1, 2
_PHASE_RULE = {
    _START: "must be the node's only instruction",
    _AFTER_LEFT: "needs a decoded left child",
    _AFTER_RIGHT: "needs both children decoded",
}


@dataclass(frozen=True)
class OpInfo:
    """One opcode's facts, read by the walk, the cycle model and the engine.

    side is the child side a descent opens (True = R), None for a closer;
    phase is the phase the open node must be in.  zero_left marks the
    rate-0-left form, parity a right child decided by Wagner SPC.  A closer
    needs node stage >= min_stage (== when fixed_stage).  cycles(2^s, P) is
    the modeled cost; phase_error overrides the walk's phase message.
    info(2^s) is the (lo, hi) runs of the node's leaves that the opcode
    decides as information bits; a leaf no instruction decides is frozen.
    """

    name: str
    side: object
    phase: int
    cycles: object
    zero_left: bool = False
    parity: bool = False
    min_stage: int = 0
    fixed_stage: bool = False
    phase_error: str = None
    info: object = lambda size: ()

    def reads(self, size):
        """Modeled soft reads: both halves for a descent, none for COMBINE(-0R)."""
        if self.side is not None:
            return 2 * size
        return 0 if self.phase == _AFTER_RIGHT else size


def _descent_cycles(size, p):
    return max(1, size // p)


def _half_cycles(size, p):
    return max(1, size // (2 * p))


def _parity_cycles(size, p):
    m = size // 2  # the parity child size
    if m > p:
        return m // p + 4
    # one hand-off cycle, then one more per depth tier m passes: 8, 64, 256
    return 1 + _half_cycles(size, p) + (m > 8) + (m > 64) + (m > 256)


# The instruction set, in Opcode order: the one definition of each opcode's
# name, walk rules, modeled costs and information leaves.
OPS = {
    Opcode.F: OpInfo("F", False, _START, _descent_cycles,
                     phase_error="F is only valid before the left child"),
    Opcode.G: OpInfo("G", True, _AFTER_LEFT, _descent_cycles),
    Opcode.COMBINE: OpInfo("COMBINE", None, _AFTER_RIGHT, _half_cycles),
    Opcode.COMBINE_0R: OpInfo("COMBINE-0R", None, _AFTER_RIGHT, _half_cycles, zero_left=True),
    Opcode.G_0R: OpInfo("G-0R", True, _START, _descent_cycles, zero_left=True,
                        phase_error="G-0R is only valid before any child"),
    Opcode.P_R1: OpInfo("P-R1", None, _AFTER_LEFT, _half_cycles, min_stage=1,
                        info=lambda size: ((size // 2, size),)),
    Opcode.P_RSPC: OpInfo("P-RSPC", None, _AFTER_LEFT, _parity_cycles, parity=True, min_stage=2,
                          info=lambda size: ((size // 2 + 1, size),)),
    Opcode.P_01: OpInfo("P-01", None, _START, _half_cycles, zero_left=True, min_stage=1,
                        info=lambda size: ((size // 2, size),)),
    Opcode.P_0SPC: OpInfo("P-0SPC", None, _START, _parity_cycles, zero_left=True, parity=True,
                          min_stage=2, info=lambda size: ((size // 2 + 1, size),)),
    Opcode.ML: OpInfo("ML", None, _START, lambda size, p: 1, min_stage=2, fixed_stage=True,
                      info=lambda size: ((1, 2), (3, 4))),
    Opcode.REP: OpInfo("REP", None, _START, lambda size, p: 1 if size <= 2 * p else size // p,
                       min_stage=1, info=lambda size: ((size - 1, size),)),
    Opcode.REP_SPC: OpInfo("REP-SPC", None, _START, lambda size, p: 1, parity=True, min_stage=3,
                           fixed_stage=True, info=lambda size: ((3, 4), (5, 8))),
    Opcode.R1: OpInfo("R1", None, _START, _half_cycles, info=lambda size: ((0, size),)),
}
OP_NAMES = {op: row.name for op, row in OPS.items()}
OP_BY_NAME = {v: k for k, v in OP_NAMES.items()}


@dataclass(frozen=True)
class Instruction:
    op: Opcode
    right: bool
    stage: int

    def __str__(self):
        return f"{OP_NAMES[self.op]} {'R' if self.right else 'L'} stage={self.stage}"


class NodeKind(Enum):
    RATE0 = "rate0"
    RATE1 = "rate1"
    REP = "rep"
    SPC = "spc"
    REP_SPC = "rep-spc"
    ML4 = "ml4"
    RATER = "rate-r"


@dataclass(frozen=True)
class NodeRuleSet:
    """Which constituent decoders the pruning pass may use.

    Rate-0 and rate-1 pruning and the parent mergers are always available;
    these flags cover the specialized node types only.  rep_min/rep_max
    bound the sizes eligible for repetition decoding.
    """

    spc: bool = True
    rep: bool = True
    rep_spc: bool = True
    ml4: bool = True
    rep_min: int = 2
    rep_max: int = 16


_RULE_PRESETS = {
    "all": NodeRuleSet(),
    "none": NodeRuleSet(spc=False, rep=False, rep_spc=False, ml4=True),
    "ssc": NodeRuleSet(spc=False, rep=False, rep_spc=False, ml4=False),
}
_RULE_FLAGS = {"spc": "spc", "rep": "rep", "rep-spc": "rep_spc", "ml4": "ml4"}


def rules_from_names(text):
    """Parse a rule-set spelling: a preset or a comma list of node types.

    Presets: "all", "none" (ML-limited baseline), "ssc" (rate-0/rate-1
    pruning only).  A comma list names exactly the enabled types out of
    spc, rep, rep-spc, ml4.
    """
    text = text.strip().lower()
    if text in _RULE_PRESETS:
        return _RULE_PRESETS[text]
    flags = dict(spc=False, rep=False, rep_spc=False, ml4=False)
    for part in text.split(","):
        part = part.strip()
        if part not in _RULE_FLAGS:
            raise ValueError(f"unknown node type {part!r}")
        flags[_RULE_FLAGS[part]] = True
    return NodeRuleSet(**flags)


@dataclass
class Node:
    kind: NodeKind
    stage: int
    start: int
    size: int
    left: "Node" = None
    right: "Node" = None


@dataclass
class DecoderTree:
    root: Node
    spec: object
    p: int
    rules: NodeRuleSet


def _classify(fs, size, is_right, rules):
    nf = fs.count(1)
    if nf == size:
        return NodeKind.RATE0
    if nf == 0:
        return NodeKind.RATE1
    if rules.rep and rules.rep_min <= size <= rules.rep_max and nf == size - 1 and not fs[-1]:
        return NodeKind.REP
    if rules.spc and is_right and size >= 2 and nf == 1 and fs[0]:
        return NodeKind.SPC
    if rules.rep_spc and size == 8 and nf == 4 and fs[0] and fs[1] and fs[2] and fs[4]:
        return NodeKind.REP_SPC
    if rules.ml4 and size == 4 and nf == 2 and fs[0] and fs[2]:
        return NodeKind.ML4
    return NodeKind.RATER


def build_tree(spec, p=256, rules=None):
    """Build the pruned decoder tree for a code.

    p is the processing resource parameter (a power of two); it does not
    influence the tree shape, only the latency estimate of the compiled
    program.  Single-parity-check pruning applies to right children only:
    the instruction set decodes such a node merged into its parent, so the
    same frozen pattern in a left child recurses instead.
    """
    if p < 1 or p & (p - 1):
        raise ValueError(f"p must be a power of two, got {p}")
    if rules is None:
        rules = NodeRuleSet()
    frozen = spec.frozen_natural.tobytes()  # bytes slices count and index fastest

    def build(start, size, stage, is_right):
        kind = _classify(frozen[start : start + size], size, is_right, rules)
        node = Node(kind, stage, start, size)
        if kind is NodeKind.RATER:
            half = size // 2
            node.left = build(start, half, stage - 1, False)
            node.right = build(start + half, half, stage - 1, True)
        return node

    return DecoderTree(build(0, spec.N, spec.n_bits, False), spec, p, rules)


def compile_tree(tree):
    """Emit the depth-first instruction program for a pruned tree.

    Mergers are always applied: a rate-0 left child is never visited (G-0R /
    COMBINE-0R or the P-0 forms), and rate-1 or parity right children fold
    into the parent step (P-R1 / P-RSPC / P-01 / P-0SPC).  Size-2 repetition
    nodes lower to P-01, which computes the identical result.  Trees whose
    frozen sets put an all-information node on a left branch, or an
    all-frozen node on a right branch, have no encoding in this instruction
    set and are rejected; reliability-ordered constructions never produce
    them.  The program's derived spec has tree.spec's mask.
    """
    ins = []

    def emit(node, right):
        kind = node.kind
        if kind is NodeKind.RATE1:
            ins.append(Instruction(Opcode.R1, right, node.stage))
            return
        if kind is NodeKind.REP:
            op = Opcode.P_01 if node.size == 2 else Opcode.REP
            ins.append(Instruction(op, right, node.stage))
            return
        if kind is NodeKind.REP_SPC:
            ins.append(Instruction(Opcode.REP_SPC, right, node.stage))
            return
        if kind is NodeKind.ML4:
            ins.append(Instruction(Opcode.ML, right, node.stage))
            return
        if kind is not NodeKind.RATER:
            raise CompileError(f"cannot emit a bare {kind.value} node")
        l, r = node.left, node.right
        if r.kind is NodeKind.RATE0:
            raise CompileError(
                "right child all-frozen under a mixed node: no instruction exists"
            )
        if l.kind is NodeKind.RATE0:
            if r.kind is NodeKind.RATE1:
                ins.append(Instruction(Opcode.P_01, right, node.stage))
            elif r.kind is NodeKind.SPC:
                ins.append(Instruction(Opcode.P_0SPC, right, node.stage))
            else:
                ins.append(Instruction(Opcode.G_0R, True, node.stage - 1))
                emit(r, True)
                ins.append(Instruction(Opcode.COMBINE_0R, right, node.stage))
            return
        if l.kind is NodeKind.RATE1:
            raise CompileError(
                "left child all-information under a mixed node: no instruction exists"
            )
        ins.append(Instruction(Opcode.F, False, node.stage - 1))
        emit(l, False)
        if r.kind is NodeKind.RATE1:
            ins.append(Instruction(Opcode.P_R1, right, node.stage))
        elif r.kind is NodeKind.SPC:
            ins.append(Instruction(Opcode.P_RSPC, right, node.stage))
        else:
            ins.append(Instruction(Opcode.G, True, node.stage - 1))
            emit(r, True)
            ins.append(Instruction(Opcode.COMBINE, right, node.stage))

    if tree.root.kind is not NodeKind.RATE0:
        emit(tree.root, False)
    return Program(
        n_bits=tree.spec.n_bits,
        k=tree.spec.k,
        p=tree.p,
        instructions=tuple(ins),
    )


@dataclass(frozen=True)
class Program:
    """A compiled decoder: instruction list plus the run parameters.

    Structural validity (the depth-first stage walk, and a header k equal to
    the information bits the instructions decide) is checked on
    construction, so a Program that exists is executable.  Its code, `spec`,
    is derived from the instructions, not given.  The fields are frozen, so
    `table`, `spec` and the execution plans stay those of the checked walk.
    """

    n_bits: int
    k: int
    p: int
    instructions: tuple
    # execution plan cache owned by engine.execute; not part of the value
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_bits < 1:
            raise ProgramFormatError(f"n_bits must be >= 1, got {self.n_bits}")
        if not 0 <= self.k <= (1 << self.n_bits):
            raise ProgramFormatError(f"k={self.k} out of range for N={1 << self.n_bits}")
        if self.p < 1 or self.p & (self.p - 1):
            raise ProgramFormatError(f"P must be a power of two, got {self.p}")
        object.__setattr__(self, "instructions", tuple(self.instructions))
        object.__setattr__(self, "_nodes", walk_stages(
            [(i.op, i.right) for i in self.instructions], self.n_bits, self.k,
            declared=[i.stage for i in self.instructions],
        ))

    @property
    def N(self):
        return 1 << self.n_bits

    @cached_property
    def table(self):
        """Read-only int64 (opcode, stage, start) rows, the nodes of the walk
        that checked the program on construction; built on first use."""
        table = np.array([(i.op, *node) for i, node in zip(self.instructions, self._nodes)],
                         np.int64)
        table = table.reshape(-1, 3)  # (0, 3) for the empty program
        table.setflags(write=False)
        return table

    @cached_property
    def spec(self):
        """The CodeSpec whose information bits are the OPS info leaves of table's rows.

        Built on first use; ValueError where leaf 0 is information (no compiled tree).
        """
        natural = np.ones(self.N, bool)
        for op, stage, start in self.table.tolist():
            for lo, hi in OPS[op].info(1 << stage):
                natural[start + lo : start + hi] = False
        return CodeSpec(natural[bit_reverse_permutation(self.n_bits)])

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_plans"]
        state.pop("table", None)
        state.pop("spec", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state, _plans={})


def walk_stages(ops_sides, n_bits, k, declared=None):
    """Validate the depth-first structure; return each instruction's node.

    The walk tracks a stack of open tree nodes.  Descent instructions must
    match the parent's phase and push a child one stage down; completing
    instructions must match the open node's stage, side, and phase.  Each
    opcode's side, phase and stage rules are its row of OPS.  When
    `declared` stages are supplied they are checked against the derived
    ones, and k against the information leaves the closers decide (OPS
    info).  A complete walk must leave leaf 0 frozen unless k = N.  Raises
    ProgramFormatError with the failing program counter, or a _HeaderError,
    with none, when k disagrees.
    The node of an instruction, the one it opens or closes, is a (stage,
    start) pair: it owns leaves [start, start + 2^stage).
    """

    def err(msg, pc):
        raise ProgramFormatError(msg, pc=pc)

    nodes = []
    if not ops_sides:
        if k != 0:
            raise ProgramFormatError("empty program for a code with information bits")
        return nodes
    if k == 0:
        err("an all-frozen code compiles to an empty program", 0)
    stack = [[n_bits, False, _START, False, 0]]  # stage, is_right, phase, zero_left, start
    info, leaf0 = 0, None
    for pc, (op, right) in enumerate(ops_sides):
        if not stack:
            err("instruction after the root completed", pc)
        row, fr = OPS[op], stack[-1]
        stage, is_right, phase, zero_left, start = fr
        if row.side is not None:  # descent: open a child one stage down
            if stage < 1:
                err("cannot descend below stage 0", pc)
            if right != row.side:
                err(f"{row.name} must carry side {'R' if row.side else 'L'}", pc)
        if phase != row.phase:
            err(row.phase_error or f"{row.name} {_PHASE_RULE[row.phase]}", pc)
        if row.side is not None:
            if row.zero_left:
                fr[2:4] = _AFTER_LEFT, True
            child = start + (1 << stage - 1 if right else 0)
            nodes.append((stage - 1, child))
            stack.append([stage - 1, right, _START, False, child])
            continue
        if phase == _AFTER_RIGHT and zero_left != row.zero_left:
            err(f"{row.name} does not match the left-child form used", pc)
        if stage < row.min_stage or row.fixed_stage and stage > row.min_stage:
            if row.fixed_stage:
                err(f"{row.name} is defined for stage {row.min_stage} only", pc)
            err(f"{row.name} needs stage >= {row.min_stage}", pc)
        if right != is_right:
            err(f"{row.name} side flag does not match the open node", pc)
        for lo, hi in row.info(1 << stage):
            info += hi - lo
            if start + lo == 0:
                leaf0 = pc
        nodes.append((stage, start))
        stack.pop()
        if stack:
            stack[-1][2] = _AFTER_RIGHT if is_right else _AFTER_LEFT
    if stack:
        raise ProgramFormatError("program ends with unfinished nodes", pc=len(ops_sides) - 1)
    if leaf0 is not None and k < 1 << n_bits:
        err(f"{OPS[ops_sides[leaf0][0]].name} decides leaf 0, which a code with frozen bits "
            "freezes", leaf0)
    if info != k:
        raise _HeaderError(f"header k={k}, but the instructions decide {info} information bits")
    if declared is not None:
        for pc, (have, (want, _)) in enumerate(zip(declared, nodes)):
            if have != want:
                err(f"stage {have} does not match the walk (expected {want})", pc)
    return nodes


def estimate_latency(program):
    """Total cycles to execute a program with its resource parameter P.

    Per-instruction costs, the cycles(2^s, P) of each opcode's OPS row: a
    descent touching 2^(s+1) inputs takes max(1, 2^s/P) cycles; a combine
    or merged single-output step over a stage-s node takes
    max(1, 2^s/(2P)); REP is one cycle up to 2P values and two passes
    beyond; ML and REP-SPC are single-cycle; the parity mergers pay one
    cycle to hand the g output to the parity pipeline plus a depth penalty
    keyed to the parity child size m = 2^(s-1): +0 for m <= 8, +1 for
    m <= 64, +2 for m <= 256 (+3 out to m <= P), and m/P + 4 total once m
    exceeds P.
    """
    p = program.p
    return sum(OPS[ins.op].cycles(1 << ins.stage, p) for ins in program.instructions)


@dataclass(frozen=True)
class NodeStats:
    """Node census of a pruned tree.

    spc_bins counts parity nodes with size in (0,8], (8,64], (64,256],
    (256,N]; rep_bins counts repetition nodes with size in (0,8], (8,16],
    (16,N].
    """

    total: int
    spc_bins: tuple
    rep_bins: tuple
    kind_counts: dict = field(default=None, compare=False)


def node_stats(tree):
    """Count all nodes of the pruned tree and bin the SPC/REP leaves."""
    spc = [0, 0, 0, 0]
    rep = [0, 0, 0]
    kinds = {k: 0 for k in NodeKind}
    total = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        total += 1
        kinds[node.kind] += 1
        if node.kind is NodeKind.SPC:
            spc[_bin_index(node.size, (8, 64, 256))] += 1
        elif node.kind is NodeKind.REP:
            rep[_bin_index(node.size, (8, 16))] += 1
        if node.left is not None:
            stack.append(node.left)
            stack.append(node.right)
    return NodeStats(
        total=total,
        spc_bins=tuple(spc),
        rep_bins=tuple(rep),
        kind_counts={k.value: v for k, v in kinds.items() if v},
    )


def _bin_index(size, edges):
    for i, e in enumerate(edges):
        if size <= e:
            return i
    return len(edges)


def serialize_program(program):
    """Render the text form: one header line, then one instruction per line."""
    lines = [f"N={program.N} k={program.k} P={program.p}"]
    lines.extend(str(ins) for ins in program.instructions)
    return "\n".join(lines) + "\n"


_HEADER_RE = re.compile(r"^N=(\d+)\s+k=(\d+)\s+P=(\d+)$")
_INSTR_RE = re.compile(r"^(\S+)\s+([LR])\s+stage=(\d+)$")


def parse_program(text):
    """Parse the text program form; inverse of serialize_program.

    Comments (# to end of line) and blank lines are ignored.  The declared
    stages are verified against the structural walk, and errors carry the
    offending line number.
    """
    header = None
    raw = []  # (op, right, stage, lineno)
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            m = _HEADER_RE.match(line)
            if not m:
                raise ProgramFormatError("expected header 'N=<N> k=<k> P=<P>'", line=lineno)
            header, header_line = tuple(int(g) for g in m.groups()), lineno
            continue
        m = _INSTR_RE.match(line)
        if not m:
            raise ProgramFormatError("expected '<OPCODE> <L|R> stage=<s>'", line=lineno)
        name, side, stage = m.groups()
        if name not in OP_BY_NAME:
            raise ProgramFormatError(f"unknown opcode {name!r}", line=lineno)
        raw.append((OP_BY_NAME[name], side == "R", int(stage), lineno))
    if header is None:
        raise ProgramFormatError("missing program header")
    N, k, p = header
    if N < 2 or N & (N - 1):
        raise ProgramFormatError(f"N={N} is not a power of two")
    try:
        return Program(
            n_bits=N.bit_length() - 1,
            k=k,
            p=p,
            instructions=tuple(Instruction(op, right, stage) for op, right, stage, _ in raw),
        )
    except ProgramFormatError as e:
        if e.pc is not None and e.pc < len(raw):
            raise ProgramFormatError(str(e).split(": ", 1)[-1], line=raw[e.pc][3])
        if isinstance(e, _HeaderError):
            raise ProgramFormatError(str(e), line=header_line)
        raise


_MAGIC = b"FSSC"
_BIN_VERSION = 1


def serialize_program_binary(program):
    """Pack instructions as 5-bit fields (opcode | side<<4), LSB-first.

    Layout: magic "FSSC", version byte, n_bits byte, then little-endian
    u32 k, P, and instruction count, then the packed field stream.  Stages
    are not stored; they are reconstructed by the structural walk.
    """
    fields = np.array([ins.op | ins.right << 4 for ins in program.instructions], np.uint8)
    bits = np.unpackbits(fields.reshape(-1, 1), axis=1, count=5, bitorder="little")
    head = _MAGIC + bytes([_BIN_VERSION, program.n_bits])
    head += struct.pack("<III", program.k, program.p, len(program.instructions))
    return head + np.packbits(bits, bitorder="little").tobytes()


def parse_program_binary(data):
    """Unpack the binary program form; inverse of serialize_program_binary."""
    if len(data) < 18 or data[:4] != _MAGIC:
        raise ProgramFormatError("not a binary program (bad magic)")
    version, n_bits = data[4], data[5]
    if version != _BIN_VERSION:
        raise ProgramFormatError(f"unsupported program version {version}")
    k, p, count = struct.unpack("<III", data[6:18])
    nbytes = (5 * count + 7) // 8
    body = data[18:]
    if len(body) != nbytes:
        raise ProgramFormatError(
            f"truncated program body: expected {nbytes} bytes, got {len(body)}"
        )
    bits = np.unpackbits(np.frombuffer(body, np.uint8), count=5 * count, bitorder="little")
    fields = np.packbits(bits.reshape(-1, 5), axis=1, bitorder="little").ravel()
    bad = np.flatnonzero(fields & 15 >= len(Opcode))
    if bad.size:
        raise ProgramFormatError(f"unknown opcode value {fields[bad[0]] & 15}", pc=int(bad[0]))
    opcodes = list(Opcode)
    ops_sides = [(opcodes[f & 15], f > 15) for f in fields.tolist()]
    nodes = walk_stages(ops_sides, n_bits, k)
    return Program(
        n_bits=n_bits,
        k=k,
        p=p,
        instructions=tuple(
            Instruction(op, right, st) for (op, right), (st, _) in zip(ops_sides, nodes)
        ),
    )
