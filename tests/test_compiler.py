import itertools
import pickle
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from fastssc.compiler import (
    OP_BY_NAME,
    OP_NAMES,
    Instruction,
    NodeRuleSet,
    Opcode,
    Program,
    ProgramFormatError,
    build_tree,
    compile_tree,
    estimate_latency,
    node_stats,
    parse_program,
    parse_program_binary,
    rules_from_names,
    serialize_program,
    serialize_program_binary,
    walk_stages,
)
from fastssc.engine import EngineError, _check_access
from fastssc.polar import CodeSpec, construct_frozen_set
from fastssc.simulate import ebno_to_sigma2

REV8 = np.array([0, 4, 2, 6, 1, 5, 3, 7])


def spec_from_natural(frozen_natural_idx, n_bits=3):
    N = 1 << n_bits
    nat = np.zeros(N, dtype=bool)
    nat[list(frozen_natural_idx)] = True
    perm = np.array([int(format(i, f"0{n_bits}b")[::-1], 2) for i in range(N)])
    return CodeSpec(frozen_mask=nat[perm])


SSC_ONLY = NodeRuleSet(spc=False, rep=False, rep_spc=False, ml4=False)


def test_rules_from_names_presets():
    assert rules_from_names("all") == NodeRuleSet()
    assert rules_from_names("none") == NodeRuleSet(spc=False, rep=False, rep_spc=False)
    assert rules_from_names("ssc") == SSC_ONLY


def test_rules_from_names_tokens():
    r = rules_from_names("spc,rep")
    assert (r.spc, r.rep, r.rep_spc, r.ml4) == (True, True, False, False)
    r = rules_from_names("rep-spc")
    assert (r.spc, r.rep, r.rep_spc, r.ml4) == (False, False, True, False)
    r = rules_from_names(" ml4 , spc ")
    assert (r.spc, r.rep, r.rep_spc, r.ml4) == (True, False, False, True)
    with pytest.raises(ValueError):
        rules_from_names("rep_spc")
    with pytest.raises(ValueError):
        rules_from_names("")


def test_build_tree_p_validation():
    spec = construct_frozen_set(3, 5, 0.5)
    for p in (0, 3, -4):
        with pytest.raises(ValueError):
            build_tree(spec, p)


def test_small_code_program_text():
    spec = construct_frozen_set(3, 5, 0.5)
    prog = compile_tree(build_tree(spec, 256))
    assert serialize_program(prog) == (
        "N=8 k=5 P=256\n"
        "F L stage=2\n"
        "REP L stage=2\n"
        "P-R1 L stage=3\n"
    )
    assert estimate_latency(prog) == 3


def test_8_3_program_text_without_special_nodes():
    spec = spec_from_natural({0, 1, 2, 3, 4})
    want = (
        "N=8 k=3 P=256\n"
        "G-0R R stage=2\n"
        "F L stage=1\n"
        "P-01 L stage=1\n"
        "P-R1 R stage=2\n"
        "COMBINE-0R L stage=3\n"
    )
    for rules in (SSC_ONLY, NodeRuleSet(spc=False, rep=False, rep_spc=False)):
        prog = compile_tree(build_tree(spec, 256, rules))
        assert serialize_program(prog) == want


def test_8_3_collapses_to_one_merger_with_spc():
    spec = spec_from_natural({0, 1, 2, 3, 4})
    prog = compile_tree(build_tree(spec, 256))
    assert serialize_program(prog) == "N=8 k=3 P=256\nP-0SPC L stage=3\n"
    assert estimate_latency(prog) == 2


def test_fully_frozen_code_compiles_to_nothing():
    spec = CodeSpec(frozen_mask=np.ones(16, dtype=bool))
    tree = build_tree(spec, 256)
    st = node_stats(tree)
    assert st.total == 1
    assert st.kind_counts == {"rate0": 1}
    assert st.spc_bins == (0, 0, 0, 0)
    assert st.rep_bins == (0, 0, 0)
    prog = compile_tree(tree)
    assert prog.instructions == ()
    assert estimate_latency(prog) == 0


def test_rate1_code_is_one_instruction():
    spec = CodeSpec(frozen_mask=np.zeros(256, dtype=bool))
    prog = compile_tree(build_tree(spec, 256))
    assert len(prog.instructions) == 1
    assert prog.instructions[0].op is Opcode.R1
    assert estimate_latency(prog) == 1  # N <= 2P: one output step
    big = CodeSpec(frozen_mask=np.zeros(2048, dtype=bool))
    assert estimate_latency(compile_tree(build_tree(big, 256))) == 4


def test_node_stats_small_codes():
    spec = construct_frozen_set(3, 5, 0.5)
    st = node_stats(build_tree(spec, 256))
    assert st.total == 3
    assert st.kind_counts == {"rep": 1, "rate1": 1, "rate-r": 1}
    assert st.rep_bins == (1, 0, 0)
    assert st.spc_bins == (0, 0, 0, 0)

    st = node_stats(build_tree(spec_from_natural({0, 1, 2, 3, 4}), 256, SSC_ONLY))
    assert st.total == 7
    assert st.kind_counts == {"rate0": 2, "rate1": 2, "rate-r": 3}


def test_node_stats_bin_sums_match_kind_counts():
    spec = construct_frozen_set(11, 1500, 0.3)
    st = node_stats(build_tree(spec, 64))
    assert sum(st.spc_bins) == st.kind_counts.get("spc", 0)
    assert sum(st.rep_bins) == st.kind_counts.get("rep", 0)
    assert st.total == sum(st.kind_counts.values())


def test_classification_respects_rep_size_cap():
    # natural pattern 1,1,...,1,0 of length 32 is a repetition shape but over
    # the cap, so it must recurse instead
    spec = spec_from_natural(set(range(31)), n_bits=5)
    st = node_stats(build_tree(spec, 256))
    assert st.kind_counts.get("rep", 0) >= 1
    sizes_over_16 = st.rep_bins[2]
    assert sizes_over_16 == 0
    custom = NodeRuleSet(rep_max=32)
    st = node_stats(build_tree(spec, 256, custom))
    assert st.total == 1
    assert st.kind_counts == {"rep": 1}


def test_text_round_trip_and_latency_consistency():
    rng = np.random.default_rng(0)
    for n, k in ((4, 9), (6, 40), (8, 200), (10, 700)):
        spec = construct_frozen_set(n, k, 0.4)
        for names in ("all", "none", "ssc", "spc,ml4", "rep"):
            prog = compile_tree(build_tree(spec, 64, rules_from_names(names)))
            back = parse_program(serialize_program(prog))
            assert back.instructions == prog.instructions
            assert (back.n_bits, back.k, back.p) == (prog.n_bits, prog.k, prog.p)
            assert estimate_latency(back) == estimate_latency(prog)


def test_text_accepts_comments_and_blanks():
    text = (
        "# compiled decoder\n"
        "N=8 k=5 P=256\n"
        "\n"
        "F L stage=2   # descend\n"
        "REP L stage=2\n"
        "P-R1 L stage=3\n"
    )
    prog = parse_program(text)
    assert len(prog.instructions) == 3


def test_parse_errors_name_the_line():
    with pytest.raises(ProgramFormatError, match="line 1"):
        parse_program("F L stage=2\n")
    with pytest.raises(ProgramFormatError, match="line 2"):
        parse_program("N=8 k=5 P=256\nBOGUS L stage=2\n")
    with pytest.raises(ProgramFormatError, match="line 2"):
        parse_program("N=8 k=5 P=256\nF L\n")
    with pytest.raises(ProgramFormatError):
        parse_program("")


def test_parse_rejects_structurally_invalid_programs():
    # declared stage disagrees with the walk
    with pytest.raises(ProgramFormatError, match="line 2"):
        parse_program("N=8 k=5 P=256\nF L stage=1\nREP L stage=2\nP-R1 L stage=3\n")
    # program stops with the tree half decoded
    with pytest.raises(ProgramFormatError):
        parse_program("N=8 k=5 P=256\nF L stage=2\n")
    # an empty program only fits a fully frozen code
    with pytest.raises(ProgramFormatError):
        parse_program("N=8 k=5 P=256\n")


def test_header_k_must_equal_the_information_bits_decided():
    # REP-SPC decides leaves 3, 5, 6 and 7 of its node: 4 information bits
    text = "# REP-SPC alone\nN=8 k=3 P=256\nREP-SPC L stage=3\n"
    msg = "header k=3, but the instructions decide 4 information bits"
    with pytest.raises(ProgramFormatError) as e:
        parse_program(text)
    assert (e.value.line, e.value.pc, str(e.value)) == (2, None, f"line 2: {msg}")
    with pytest.raises(ProgramFormatError) as e:
        parse_program_binary(_raw_binary(3, 3, 256, [(Opcode.REP_SPC, False)]))
    assert (e.value.line, e.value.pc, str(e.value)) == (None, None, msg)
    with pytest.raises(ProgramFormatError, match="decide 4 information bits"):
        Program(n_bits=3, k=5, p=256, instructions=(Instruction(Opcode.REP_SPC, False, 3),))
    prog = parse_program(text.replace("k=3", "k=4"))
    assert np.flatnonzero(~prog.spec.frozen_natural).tolist() == [3, 5, 6, 7]


def test_program_header_validation():
    with pytest.raises(ProgramFormatError):
        parse_program("N=6 k=3 P=256\n")
    with pytest.raises(ProgramFormatError):
        Program(n_bits=3, k=9, p=256, instructions=())
    with pytest.raises(ProgramFormatError):
        Program(n_bits=3, k=0, p=100, instructions=())


def test_binary_round_trip():
    for n, k in ((3, 5), (7, 90), (10, 512)):
        spec = construct_frozen_set(n, k, 0.4)
        prog = compile_tree(build_tree(spec, 32))
        blob = serialize_program_binary(prog)
        assert blob[:4] == b"FSSC"
        back = parse_program_binary(blob)
        assert back.instructions == prog.instructions
        assert (back.n_bits, back.k, back.p) == (prog.n_bits, prog.k, prog.p)


def test_binary_rejects_corruption():
    spec = construct_frozen_set(3, 5, 0.5)
    blob = serialize_program_binary(compile_tree(build_tree(spec, 256)))
    with pytest.raises(ProgramFormatError):
        parse_program_binary(b"JUNK" + blob[4:])
    with pytest.raises(ProgramFormatError):
        parse_program_binary(blob[:-1])


def test_latency_monotone_in_enabled_rules():
    """Enabling one more node type never slows the estimate down."""
    spec = construct_frozen_set(11, 1400, 0.25)
    flags = ("spc", "rep", "rep_spc", "ml4")
    lat = {}
    for combo in itertools.product((False, True), repeat=4):
        kw = dict(zip(flags, combo))
        lat[combo] = estimate_latency(compile_tree(build_tree(spec, 64, NodeRuleSet(**kw))))
    for combo, value in lat.items():
        for i, on in enumerate(combo):
            if not on:
                richer = combo[:i] + (True,) + combo[i + 1 :]
                assert lat[richer] <= value


def test_merged_parity_cost_tiers():
    """A lone parity merger costs more as the parity child grows."""
    seen = []
    for n_bits in (4, 7, 9, 11, 13):
        N = 1 << n_bits
        # frozen left half plus one bit: rate-0 left child, parity right child
        spec = spec_from_natural(set(range(N // 2)) | {N // 2}, n_bits=n_bits)
        prog = compile_tree(build_tree(spec, 256))
        assert [ins.op for ins in prog.instructions] == [Opcode.P_0SPC]
        seen.append(estimate_latency(prog))
    assert seen == [2, 3, 4, 8, 20]


def test_instruction_stage_walk_matches_tree_descent():
    """Descents drop the stage by one; completing ops close the open node.
    Each table row holds the (stage, start) of the tree node its instruction
    opens or closes."""
    descend = (Opcode.F, Opcode.G, Opcode.G_0R)
    for names in ("ssc", "all"):
        spec = construct_frozen_set(9, 320, 0.4)
        tree = build_tree(spec, 16, rules_from_names(names))
        prog = compile_tree(tree)
        assert prog.table.shape == (len(prog.instructions), 3)
        assert not prog.table.flags.writeable
        stack = [prog.n_bits]
        nodes = [tree.root]  # the open tree nodes
        for ins, (op, stage, start) in zip(prog.instructions, prog.table.tolist()):
            assert op == ins.op
            if ins.op in descend:
                assert ins.stage == stack[-1] - 1
                stack.append(ins.stage)
                nodes.append(nodes[-1].left if ins.op is Opcode.F else nodes[-1].right)
                node = nodes[-1]
            else:
                assert ins.stage == stack[-1]
                stack.pop()
                node = nodes.pop()
            assert (stage, start) == (node.stage, node.start)
        assert stack == [] and nodes == []


# One structurally invalid program per walk message: (N, k, instruction
# lines, message, failing pc).  pc None marks a whole-program error.
STRUCTURE_ERRORS = {
    "after-root": (8, 5, ["R1 L stage=3", "R1 L stage=3"],
                   "instruction after the root completed", 1),
    "cannot-descend": (2, 1, ["F L stage=0", "F L stage=0"],
                       "cannot descend below stage 0", 1),
    "F-side": (8, 5, ["F R stage=2"], "F must carry side L", 0),
    "G-side": (8, 5, ["G L stage=2"], "G must carry side R", 0),
    "G-0R-side": (8, 5, ["G-0R L stage=2"], "G-0R must carry side R", 0),
    "F-phase": (8, 5, ["F L stage=2", "R1 L stage=2", "F L stage=2"],
                "F is only valid before the left child", 2),
    "G-phase": (8, 5, ["G R stage=2"], "G needs a decoded left child", 0),
    "G-after-G-0R": (8, 5, ["G-0R R stage=2", "R1 R stage=2", "G R stage=2"],
                     "G needs a decoded left child", 2),
    "G-0R-phase": (8, 5, ["F L stage=2", "R1 L stage=2", "G-0R R stage=2"],
                   "G-0R is only valid before any child", 2),
    "only-instruction": (8, 5, ["F L stage=2", "R1 L stage=2", "REP R stage=3"],
                         "REP must be the node's only instruction", 2),
    "decoded-left-child": (8, 5, ["P-R1 L stage=3"], "P-R1 needs a decoded left child", 0),
    "both-children": (8, 5, ["F L stage=2", "R1 L stage=2", "COMBINE L stage=3"],
                      "COMBINE needs both children decoded", 2),
    "left-child-form": (8, 5, ["G-0R R stage=2", "R1 R stage=2", "COMBINE L stage=3"],
                        "COMBINE does not match the left-child form used", 2),
    "stage-ge-1": (2, 1, ["F L stage=0", "P-01 L stage=0"], "P-01 needs stage >= 1", 1),
    "stage-ge-2": (2, 1, ["P-0SPC L stage=1"], "P-0SPC needs stage >= 2", 0),
    "ml-stage": (8, 5, ["ML L stage=3"], "ML is defined for stage 2 only", 0),
    "rep-spc-stage": (4, 2, ["REP-SPC L stage=2"], "REP-SPC is defined for stage 3 only", 0),
    "side-flag": (4, 3, ["R1 R stage=2"], "R1 side flag does not match the open node", 0),
    "unfinished": (8, 5, ["F L stage=2", "F L stage=1"], "program ends with unfinished nodes", 1),
    "empty-with-info": (8, 5, [], "empty program for a code with information bits", None),
    "all-frozen": (8, 0, ["R1 L stage=3"], "an all-frozen code compiles to an empty program", 0),
    "declared-stage": (8, 5, ["F L stage=1", "REP L stage=2", "P-R1 L stage=3"],
                       "stage 1 does not match the walk (expected 2)", 0),
}


def _raw_binary(n_bits, k, p, ops_sides):
    """The binary form of an instruction list, with no structural check."""
    acc = 0
    for i, (op, right) in enumerate(ops_sides):
        acc |= (int(op) | int(right) << 4) << (5 * i)
    head = b"FSSC" + bytes([1, n_bits]) + struct.pack("<III", k, p, len(ops_sides))
    return head + acc.to_bytes((5 * len(ops_sides) + 7) // 8, "little")


@pytest.mark.parametrize("case", sorted(STRUCTURE_ERRORS))
def test_structure_errors_keep_message_and_location(case):
    N, k, lines, msg, pc = STRUCTURE_ERRORS[case]
    n_bits = N.bit_length() - 1
    parsed = [line.split() for line in lines]
    ops_sides = [(OP_BY_NAME[name], side == "R") for name, side, _ in parsed]
    declared = [int(stage.split("=")[1]) for _, _, stage in parsed]

    with pytest.raises(ProgramFormatError) as e:
        walk_stages(ops_sides, n_bits, k, declared=declared)
    assert e.value.pc == pc and e.value.line is None
    assert str(e.value) == (msg if pc is None else f"instruction {pc}: {msg}")

    # the header is line 1, so instruction pc sits on line pc + 2
    with pytest.raises(ProgramFormatError) as e:
        parse_program("\n".join([f"N={N} k={k} P=256"] + lines) + "\n")
    line = None if pc is None else pc + 2
    assert e.value.line == line and e.value.pc is None
    assert str(e.value) == (msg if line is None else f"line {line}: {msg}")

    if case == "declared-stage":  # the binary form stores no stages
        return
    with pytest.raises(ProgramFormatError) as e:
        parse_program_binary(_raw_binary(n_bits, k, 256, ops_sides))
    assert e.value.pc == pc
    assert str(e.value) == (msg if pc is None else f"instruction {pc}: {msg}")


def test_opcode_numbers_and_names_are_fixed():
    names = {
        0: "F", 1: "G", 2: "COMBINE", 3: "COMBINE-0R", 4: "G-0R", 5: "P-R1",
        6: "P-RSPC", 7: "P-01", 8: "P-0SPC", 9: "ML", 10: "REP", 11: "REP-SPC", 12: "R1",
    }
    assert [(int(op), name) for op, name in OP_NAMES.items()] == list(names.items())
    assert [(name, int(op)) for name, op in OP_BY_NAME.items()] == [
        (name, value) for value, name in names.items()
    ]
    assert [int(op) for op in Opcode] == list(names)


# every opcode but R1, each in a position the walk accepts
EVERY_OP_TEXT = """N=32 k=16 P=4
F L stage=4
F L stage=3
REP-SPC L stage=3
G R stage=3
F L stage=2
ML L stage=2
P-RSPC R stage=3
COMBINE L stage=4
G R stage=4
F L stage=3
G-0R R stage=2
P-0SPC R stage=2
COMBINE-0R L stage=3
G R stage=3
F L stage=2
F L stage=1
P-01 L stage=1
G R stage=1
REP R stage=1
COMBINE L stage=2
P-R1 R stage=3
COMBINE R stage=4
COMBINE L stage=5
"""
EVERY_OP_BINARY = bytes.fromhex(
    "46 53 53 43 01 05 10 00 00 00 04 00 00 00 17 00 00 00"
    " 00 ac 08 92 15 11 50 3c 22 00 27 6a 51 a5 00"
)
R1_TEXT = "N=2 k=2 P=1\nR1 L stage=1\n"
R1_BINARY = bytes.fromhex("46 53 53 43 01 01 02 00 00 00 01 00 00 00 01 00 00 00 0c")


@pytest.mark.parametrize("text, blob", [(EVERY_OP_TEXT, EVERY_OP_BINARY), (R1_TEXT, R1_BINARY)])
def test_program_formats_are_fixed(text, blob):
    prog = parse_program(text)
    assert serialize_program(prog) == text
    assert serialize_program_binary(prog) == blob
    back = parse_program_binary(blob)
    assert back.instructions == prog.instructions
    assert serialize_program(back) == text
    used = {ins.op for ins in prog.instructions}
    assert used == ({Opcode.R1} if text == R1_TEXT else set(Opcode) - {Opcode.R1})


def test_every_opcode_decides_its_information_leaves():
    prog = parse_program(EVERY_OP_TEXT)
    # REP-SPC 3 5 6 7, ML 9 11, P-RSPC 13-15, P-0SPC 23, P-01 25, REP 27, P-R1 28-31
    info = [3, 5, 6, 7, 9, 11, 13, 14, 15, 23, 25, 27, 28, 29, 30, 31]
    assert np.flatnonzero(~prog.spec.frozen_natural).tolist() == info
    assert parse_program(R1_TEXT).spec.k == 2
    # an R1 left child under a mixed node, which no compiled tree has, leaves
    # leaf 0 unfrozen: no CodeSpec has that mask
    odd = parse_program("N=4 k=3 P=1\nF L stage=1\nR1 L stage=1\nG R stage=1\n"
                        "P-01 R stage=1\nCOMBINE L stage=2\n")
    with pytest.raises(ValueError, match="must freeze index 0"):
        odd.spec


def test_program_derives_the_mask_it_was_compiled_from():
    """GA codes over n = 1..10 under five rule sets: the derived spec is the
    source mask, and the formats and pickles give back equal programs."""
    rules = [rules_from_names(r) for r in ("all", "none", "ssc", "spc,rep", "rep-spc,ml4")]
    for n in range(1, 11):
        N = 1 << n
        for k in sorted({1, N // 8 or 1, N // 4 or 1, N // 2, 3 * N // 4 or 1, N - 1, N}):
            for ebno in (0.0, 2.0, 4.0, 6.0):
                spec = construct_frozen_set(n, k, ebno_to_sigma2(ebno, k / N))
                for r in rules:
                    prog = compile_tree(build_tree(spec, 64, r))
                    assert "spec" not in prog.__dict__  # derived lazily, not on construction
                    assert np.array_equal(prog.spec.frozen_mask, spec.frozen_mask), (n, k, r)
            # spec is no compared field: the stored forms give back an equal program
            assert parse_program(serialize_program(prog)) == prog
            assert parse_program_binary(serialize_program_binary(prog)) == prog
            clone = pickle.loads(pickle.dumps(prog))  # a pickle derives its spec again
            assert "spec" not in clone.__dict__ and clone == prog
            assert np.array_equal(clone.spec.frozen_mask, spec.frozen_mask)


# the stages at which each instruction can appear in a valid program
LEGAL_STAGES = {
    Opcode.F: range(0, 16), Opcode.G: range(0, 16), Opcode.G_0R: range(0, 16),
    Opcode.COMBINE: range(1, 16), Opcode.COMBINE_0R: range(1, 16), Opcode.R1: range(0, 16),
    Opcode.P_R1: range(1, 16), Opcode.P_01: range(1, 16), Opcode.REP: range(1, 16),
    Opcode.P_RSPC: range(2, 16), Opcode.P_0SPC: range(2, 16),
    Opcode.ML: (2,), Opcode.REP_SPC: (3,),
}


def _docstring_cycles(op, s, p):
    """estimate_latency's per-instruction costs, as its docstring states them."""
    size = 2**s
    if op in (Opcode.F, Opcode.G, Opcode.G_0R):
        return max(1, size // p)
    if op in (Opcode.COMBINE, Opcode.COMBINE_0R, Opcode.P_R1, Opcode.P_01, Opcode.R1):
        return max(1, size // (2 * p))
    if op is Opcode.REP:
        return 1 if size <= 2 * p else 2 * (size // (2 * p))
    if op in (Opcode.ML, Opcode.REP_SPC):
        return 1
    m = size // 2  # P-RSPC / P-0SPC: the parity child size
    if m > p:
        return m // p + 4
    penalty = 0 if m <= 8 else 1 if m <= 64 else 2 if m <= 256 else 3
    return 1 + max(1, size // (2 * p)) + penalty


@pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.name)
def test_cycle_model_per_opcode(op):
    for s in LEGAL_STAGES[op]:
        for p in (2**i for i in range(11)):
            one = SimpleNamespace(p=p, instructions=(Instruction(op, False, s),))
            assert estimate_latency(one) == _docstring_cycles(op, s, p), (s, p)


def test_debug_bound_fires_only_for_ml_and_rep_spc():
    """2P reads per modeled cycle: only ML (4 reads) at P=1 and REP-SPC (8) at P<=2 exceed it."""
    fired = set()
    for op, stages in LEGAL_STAGES.items():
        for s in stages:
            for p in (2**i for i in range(12)):
                try:
                    _check_access(Instruction(op, False, s), p, 7)
                except EngineError as e:
                    assert e.pc == 7
                    fired.add((op, s, p))
    assert fired == {(Opcode.ML, 2, 1), (Opcode.REP_SPC, 3, 1), (Opcode.REP_SPC, 3, 2)}
