import pickle
import sys
import threading

import numpy as np
import pytest

from fastssc import _clib
from fastssc.compiler import (
    NodeRuleSet,
    Opcode,
    build_tree,
    compile_tree,
    rules_from_names,
)
from fastssc.engine import EngineError, execute
from fastssc.kernels import decode_ml4
from fastssc.polar import (
    CodeSpec,
    bit_reverse_permutation,
    construct_frozen_set,
    encode_polar,
    encode_systematic,
    extract_info,
)
from fastssc.quantize import QuantScheme, parse_quant, quantize_channel
from fastssc.reference import sc_decode
from fastssc.simulate import awgn_bpsk_llr, ebno_to_sigma2

NO_ML4 = NodeRuleSet(ml4=False)


def noisy_llrs(spec, frames, ebno_db, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=(frames, spec.k), dtype=np.uint8)
    x = encode_systematic(a, spec)
    sigma = np.sqrt(ebno_to_sigma2(ebno_db, spec.k / spec.N))
    return a, x, awgn_bpsk_llr(x, sigma, rng)


def test_matches_sc_reference_float():
    for n, k in ((6, 40), (8, 140)):
        spec = construct_frozen_set(n, k, 0.5)
        prog = compile_tree(build_tree(spec, 64, NO_ML4))
        _, _, llr = noisy_llrs(spec, 400, 2.0, seed=n)
        assert np.array_equal(execute(prog, llr), sc_decode(llr, spec))


def test_matches_sc_reference_fixed_point():
    # Exact agreement needs tie-free inputs.  Integer LLRs tie constantly
    # under noise (equal magnitudes, zeros), so exactness is checked in the
    # noiseless regime where every sign decision is strict, and the noisy
    # regime only has to stay close and structurally valid.
    q = QuantScheme(6, 4, 1)
    spec = construct_frozen_set(7, 80, 0.5)
    rng = np.random.default_rng(3)
    a = rng.integers(0, 2, size=(200, 80), dtype=np.uint8)
    x = encode_systematic(a, spec)
    clean_q = quantize_channel((1.0 - 2.0 * x) * 3.5, q)
    want = sc_decode(clean_q, spec, quant=q)
    assert np.array_equal(want, x)
    for names in ("ssc", "rep", "spc", "rep,spc,rep-spc", "all"):
        prog = compile_tree(build_tree(spec, 64, rules_from_names(names)))
        assert np.array_equal(execute(prog, clean_q, quant=q), want)

    prog = compile_tree(build_tree(spec, 64, NO_ML4))
    _, _, llr = noisy_llrs(spec, 400, 2.0, seed=9)
    llr_q = quantize_channel(llr, q)
    got = execute(prog, llr_q, quant=q)
    ref = sc_decode(llr_q, spec, quant=q)
    mismatched = int((got != ref).any(axis=1).sum())
    assert mismatched < 40
    back = encode_systematic(extract_info(got, spec), spec)
    assert np.array_equal(back, got)


def test_matches_sc_for_every_rule_subset():
    spec = construct_frozen_set(6, 44, 0.5)
    _, _, llr = noisy_llrs(spec, 200, 3.0, seed=11)
    want = sc_decode(llr, spec)
    for names in ("ssc", "spc", "rep", "rep-spc", "spc,rep,rep-spc"):
        prog = compile_tree(build_tree(spec, 32, rules_from_names(names)))
        assert np.array_equal(execute(prog, llr), want)


def test_noiseless_all_rules_both_domains():
    q = QuantScheme(7, 5, 1)
    for n, k in ((5, 20), (8, 180), (10, 800)):
        spec = construct_frozen_set(n, k, 0.4)
        prog = compile_tree(build_tree(spec, 64))
        rng = np.random.default_rng(n)
        a = rng.integers(0, 2, size=(32, k), dtype=np.uint8)
        x = encode_systematic(a, spec)
        llr = 6.0 * (1.0 - 2.0 * x.astype(np.float64))
        assert np.array_equal(execute(prog, llr), x)
        assert np.array_equal(execute(prog, quantize_channel(llr, q), quant=q), x)


def test_small_code_carries_info_in_order():
    spec = construct_frozen_set(3, 5, 0.5)
    prog = compile_tree(build_tree(spec, 256))
    a = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    x = encode_systematic(a, spec)
    out = execute(prog, 8.0 * (1.0 - 2.0 * x.astype(np.float64)))
    assert np.array_equal(out, x)
    assert np.array_equal(out[spec.info_positions], a)


def test_output_is_always_a_codeword():
    rng = np.random.default_rng(14)
    spec = construct_frozen_set(7, 100, 0.5)
    prog = compile_tree(build_tree(spec, 32))
    out = execute(prog, rng.normal(size=(300, 128)))
    u = encode_polar(out)
    assert not u[:, spec.frozen_mask].any()


def test_deterministic_re_execution():
    spec = construct_frozen_set(6, 30, 0.5)
    prog = compile_tree(build_tree(spec, 64))
    rng = np.random.default_rng(15)
    llr = rng.normal(size=(8, 64))
    assert np.array_equal(execute(prog, llr), execute(prog, llr))


def test_debug_mode_accepts_valid_programs():
    """The 2P access bound holds for every instruction the compiler emits."""
    for p in (16, 64, 256):
        spec = construct_frozen_set(9, 340, 0.4)
        prog = compile_tree(build_tree(spec, p))
        _, x, llr = noisy_llrs(spec, 4, 4.0, seed=p)
        out = execute(prog, llr, debug=True)
        assert out.shape == (4, 512)


def test_input_validation():
    spec = construct_frozen_set(3, 5, 0.5)
    prog = compile_tree(build_tree(spec, 256))
    q = QuantScheme(6, 4, 0)
    with pytest.raises(ValueError):
        execute(prog, np.zeros(4))
    with pytest.raises(ValueError):
        execute(prog, np.zeros(8), quant=q)  # floats into the integer domain
    with pytest.raises(ValueError):
        execute(prog, np.full(8, 99, dtype=np.int32), quant=q)  # out of range
    # the range check in every integer type, without widening
    q8 = QuantScheme(8, 8, 0)  # channel range +-127
    ok = np.full(8, 127, dtype=np.int8)
    ok[3] = -127
    assert execute(prog, ok, quant=q8).shape == (8,)
    bad = [
        (q8, np.r_[np.zeros(7), -128].astype(np.int8)),  # below the symmetric range
        (q, np.r_[np.zeros(7), 8].astype(np.uint8)),
        (q8, np.r_[np.zeros(7), 200].astype(np.uint8)),
        (q8, np.r_[np.zeros(7), 2**31 + 5].astype(np.int64)),  # wraps to negative in int32
        (q8, np.r_[np.zeros(7), -(2**40)].astype(np.int64)),
        (q8, np.r_[np.zeros(7), 2**32 + 1].astype(np.int64)),  # wraps to 1 in int32
        (q8, np.r_[np.zeros(7), 2**32 - 1].astype(np.uint32)),  # wraps to -1
    ]
    for q, x in bad:
        with pytest.raises(ValueError, match="exceed the"):
            execute(prog, x, quant=q)
        with pytest.raises(ValueError, match="exceed the"):
            execute(prog, np.stack([np.zeros_like(x), x]), quant=q)


def test_ml_instruction_executes():
    # length-4 code frozen in u0, u2: the whole tree is one ML instruction
    spec = CodeSpec(frozen_mask=np.array([True, True, False, False]))
    prog = compile_tree(build_tree(spec, 16))
    assert [str(i) for i in prog.instructions] == ["ML L stage=2"]
    rng = np.random.default_rng(0)
    a = rng.integers(0, 2, size=(64, 2), dtype=np.uint8)
    x = encode_systematic(a, spec)
    llr = 5.0 * (1.0 - 2.0 * x) + 0.8 * rng.standard_normal(x.shape)
    assert np.array_equal(execute(prog, llr), sc_decode(llr, spec))
    assert np.array_equal(execute(prog, 4.0 * (1.0 - 2.0 * x)), x)


@pytest.mark.parametrize("lib", ["default", None])
def test_rep_decides_alike_in_any_input_layout(lib, monkeypatch):
    """A length-16 repetition code, one REP over the root: SC's halving order
    sums this natural-order row to -1, where numpy's sum of a column-ordered
    root, one column at a time, gives 0; every input layout decides 1."""
    if lib is None:
        monkeypatch.setattr(_clib, "library", lambda: None)
    spec = CodeSpec(frozen_mask=np.arange(16) < 15)  # N = 16 reverses index 15 into itself
    prog = compile_tree(build_tree(spec, 16))
    assert [str(i) for i in prog.instructions] == ["REP L stage=4"]
    natural = np.array([1e300, -1.0] + [0.0] * 6 + [-1e300] + [0.0] * 7)
    x = np.tile(natural[bit_reverse_permutation(4)], (5, 1))  # transmission order
    for v in (x, np.asfortranarray(x), x[:, np.arange(16)], x[0]):
        assert (execute(prog, v) == 1).all(), v.strides


@pytest.mark.parametrize("lib", ["default", None])
def test_ml4_decides_a_frame_alone_as_in_a_batch(lib, monkeypatch):
    # the frame at N = 4's float limit, 2^1021 ~ 2.2e307: with s and t the
    # sums of the natural-order halves, s + t = -7.5e306, s - t = -3.5e307 and
    # t - s = 3.5e307, with no overflow; a matrix product of the frame with
    # the candidates' signs once decided such frames differently alone and in
    # a batch (then near 1e308, where the scores overflowed)
    if lib is None:
        monkeypatch.setattr(_clib, "library", lambda: None)
    prog = compile_tree(build_tree(CodeSpec(frozen_mask=np.array([True, True, False, False])),
                                   16))
    assert [str(i) for i in prog.instructions] == ["ML L stage=2"]
    frame = np.array([-0.0, -6e307, -1.7e308, 1.7e308]) / 8
    assert np.abs(frame).max() <= 2.0 ** 1021
    natural = frame[[0, 2, 1, 3]]  # N = 4: bit reversal swaps positions 1 and 2
    assert np.array_equal(execute(prog, frame), [1, 0, 1, 0])
    assert np.array_equal(decode_ml4(natural), [1, 1, 0, 0])
    for b in (2, 128):
        assert (execute(prog, np.tile(frame, (b, 1))) == [1, 0, 1, 0]).all()
        assert (decode_ml4(np.tile(natural, (b, 1))) == [1, 1, 0, 0]).all()


def test_degenerate_codes():
    frozen = CodeSpec(frozen_mask=np.ones(32, dtype=bool))
    prog = compile_tree(build_tree(frozen, 16))
    rng = np.random.default_rng(16)
    assert not execute(prog, rng.normal(size=32)).any()

    free = CodeSpec(frozen_mask=np.zeros(32, dtype=bool))
    prog = compile_tree(build_tree(free, 16))
    llr = rng.normal(size=(5, 32))
    assert np.array_equal(execute(prog, llr), (llr < 0).astype(np.uint8))


def test_single_frame_and_batch_shapes():
    spec = construct_frozen_set(5, 20, 0.5)
    prog = compile_tree(build_tree(spec, 32))
    assert execute(prog, np.ones(32)).shape == (32,)
    assert execute(prog, np.ones((7, 32))).shape == (7, 32)


def test_debug_mode_reports_offending_pc():
    # at P=2 a stage-3 REP-SPC reads 8 values in one cycle, over the 2P=4 limit
    spec = construct_frozen_set(7, 52, 0.5)
    prog = compile_tree(build_tree(spec, 2))
    ops = [ins.op for ins in prog.instructions]
    want = ops.index(Opcode.REP_SPC)
    assert want > 0
    _, _, llr = noisy_llrs(spec, 2, 3.0, seed=17)
    with pytest.raises(EngineError) as e:
        execute(prog, llr, debug=True)
    assert e.value.pc == want
    assert execute(prog, llr).shape == (2, 128)


def test_debug_mode_bounds_ml_reads():
    # the one-instruction ML code reads 4 values in one cycle: over 2P at P=1 only
    spec = CodeSpec(frozen_mask=np.array([True, True, False, False]))
    llr = np.array([1.0, -2.0, 0.5, 3.0])
    with pytest.raises(EngineError) as e:
        execute(compile_tree(build_tree(spec, 1)), llr, debug=True)
    assert e.value.pc == 0
    assert str(e.value) == (
        "instruction 0: ML L stage=2 reads 4 values in 1 cycles, over the 2P=2 limit"
    )
    assert execute(compile_tree(build_tree(spec, 2)), llr, debug=True).shape == (4,)


def test_rejects_non_finite_llrs():
    spec = construct_frozen_set(5, 16, 0.5)
    prog = compile_tree(build_tree(spec, 16))
    for bad in (np.nan, np.inf, -np.inf):
        llr = np.ones((3, 32))
        llr[1, 7] = bad
        with pytest.raises(ValueError, match="finite"):
            execute(prog, llr)
        with pytest.raises(ValueError, match="finite"):
            execute(prog, llr[1])
    assert not execute(prog, np.full(32, 1e300)).any()



@pytest.mark.parametrize("lib", ["default", None])
def test_rejects_complex_llrs(lib, monkeypatch):
    """A complex dtype would lose its imaginary part in the cast to float64,
    or, in sc_decode, decide on complex arithmetic; both refuse it."""
    if lib is None:
        monkeypatch.setattr(_clib, "library", lambda: None)
    spec = construct_frozen_set(6, 32, 0.5)
    prog = compile_tree(build_tree(spec, 16))
    _, _, llr = noisy_llrs(spec, 8, 3.0, seed=30)
    for bad in (llr.astype(np.complex128), llr.astype(np.complex64), llr + 1j * llr[::-1]):
        for run in (lambda: execute(prog, bad), lambda: execute(prog, bad[0]),
                    lambda: sc_decode(bad, spec)):
            with pytest.raises(ValueError, match="real channel LLRs"):
                run()
    assert np.array_equal(execute(prog, llr), sc_decode(llr, spec))


@pytest.mark.parametrize("scheme", ["7:5:1", "8:8:0", "15:12:2", "16:16:0", "31:31:0"])
def test_fixed_point_widths_match_reference_when_saturating(scheme):
    """Clean frames at the channel limit drive G into saturation at every width."""
    q = parse_quant(scheme)
    spec = construct_frozen_set(8, 160, 0.5)
    prog = compile_tree(build_tree(spec, 64, NO_ML4))
    rng = np.random.default_rng(18)
    a = rng.integers(0, 2, size=(16, 160), dtype=np.uint8)
    x = encode_systematic(a, spec)
    llr = ((1 - 2 * x.astype(np.int64)) * q.channel_limit).astype(np.int32)
    got = execute(prog, llr, quant=q)
    assert np.array_equal(got, x)
    assert np.array_equal(got, sc_decode(llr, spec, quant=q))


def test_plan_reuse_across_batch_sizes_and_domains():
    q = QuantScheme(7, 5, 1)
    spec = construct_frozen_set(7, 70, 0.5)
    rules = NO_ML4
    _, _, llr = noisy_llrs(spec, 128, 2.0, seed=19)
    llr_q = quantize_channel(llr, q)
    want_float = sc_decode(llr, spec)
    # fixed point may differ from SC on ties; a fresh program is the reference
    want_fixed = execute(compile_tree(build_tree(spec, 64, rules)), llr_q, quant=q)
    prog = compile_tree(build_tree(spec, 64, rules))
    for size in (1, 7, 128, 7, 1, 128):
        for off in (0, 128 - size):
            rows = slice(off, off + size)
            assert np.array_equal(execute(prog, llr[rows]), want_float[rows])
            assert np.array_equal(execute(prog, llr_q[rows], quant=q), want_fixed[rows])
    assert np.array_equal(execute(prog, llr[5]), want_float[5])


def test_concurrent_calls_share_no_buffers():
    spec = construct_frozen_set(9, 256, 0.5)
    prog = compile_tree(build_tree(spec, 64))
    inputs = [noisy_llrs(spec, 32, 2.0, seed=s)[2] for s in (20, 21)]
    serial = [execute(prog, x) for x in inputs]
    barrier = threading.Barrier(2, timeout=30)
    wrong = [0, 0]

    def worker(i):
        barrier.wait()
        for _ in range(15):
            wrong[i] += not np.array_equal(execute(prog, inputs[i]), serial[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == [0, 0]


def test_plan_cache_is_not_pickled():
    spec = construct_frozen_set(8, 128, 0.5)
    prog = compile_tree(build_tree(spec, 64))
    _, _, llr = noisy_llrs(spec, 64, 2.0, seed=22)
    before = pickle.dumps(prog)
    out = execute(prog, llr)
    after = pickle.dumps(prog)
    assert len(after) == len(before)
    clone = pickle.loads(after)
    assert clone.instructions == prog.instructions
    assert np.array_equal(clone.table, prog.table)
    assert repr(clone) == repr(prog)
    assert np.array_equal(execute(clone, llr), out)
