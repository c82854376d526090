"""The compiled library, `_cengine.c`, against the numpy code it stands in for.

`engine.execute` decodes fixed-point frames in the library when it loads,
and float frames with its F, G, REP and decision gather; `encode_systematic` and
`quantize_channel` run there too, as do the frame bits and the channel LLRs
(`awgn_bpsk_llr`) of a PCG64 Generator where numpy's libnpyrandom.a is
linked in.  Their bit-exact reference is the numpy code: `engine._reference`, one
loop over the program that calls the `kernels.py` formulas, for decoding,
and numpy's own encoder, channel, quantizer and draws for the rest.
Every comparison runs on each ISA level's build, through the `builds`
fixture, and reaches the numpy code by making `_clib.library` return None,
which is also what a missing compiler or a failed build gives, there with a
UserWarning.
"""

import gc
import os
import shutil
import subprocess
import sys
import threading
from functools import partial
from itertools import chain
from unittest import mock

import numpy as np
import pytest

from fastssc import _clib, engine, simulate
from fastssc.compiler import build_tree, compile_tree, rules_from_names
from fastssc.engine import execute
from fastssc.polar import (
    CodeSpec, bit_reverse_permutation, construct_frozen_set, encode_systematic,
)
from fastssc.quantize import parse_quant, quantize_channel
from fastssc.reference import sc_decode
from fastssc.simulate import awgn_bpsk_llr, ebno_to_sigma2

SCHEMES = ["6:4:0", "7:5:1", "8:8:0", "16:12:2", "31:31:0"]  # int8, int8, int16, int32, int32
RULES = ["all", "ssc", "none", "spc,rep,rep-spc"]
# 33 and 70 leave a partial group of frames for every lane count (32, 16, 8)
BATCHES = (0, 1, 3, 7, 33, 70, 128)


def on(lib):
    """Run with this build of the library, or with None on the numpy steps."""
    return mock.patch.object(_clib, "library", lambda: lib)


def numpy_execute(prog, x, q):
    with on(None):
        return execute(prog, x, quant=q)


def sweep_frames(n, lim, rng):
    """128 frames uniform over the channel range, 128 dense with zeros (ties
    everywhere) and 128 at +-lim (G saturates wherever 2*lim > the internal
    limit), as int32."""
    shape = (128, 1 << n)
    return [
        rng.integers(-lim, lim + 1, shape),
        rng.choice([-2, -1, 0, 0, 0, 1, 2], shape),
        rng.choice([-lim, lim], shape),
    ]


def sweep_codes():
    """(n, code) for n = 1..12: two GA codes, and codes made of ML leaves, of
    one R1 and of no information."""
    for n in range(1, 13):
        N = 1 << n
        for k8 in (3, 6):
            yield n, construct_frozen_set(n, max(1, N * k8 // 8), 0.5)
        if 2 <= n <= 8:  # every length-4 leaf is an ML leaf (N/4 of them: numpy is slow)
            natural = np.tile([True, False, True, False], N // 4)
            yield n, CodeSpec(frozen_mask=natural[bit_reverse_permutation(n)])
        for frozen in (False, True):
            yield n, CodeSpec(frozen_mask=np.full(N, frozen))


def rep_codes(ns=(2, 3, 4)):
    """(n, code) for the repetition codes N = 2^n (k = 1), by default N =
    4..16: where the rules allow REP, one REP decides the whole frame from
    the sum of its values."""
    for n in ns:
        natural = np.arange(1 << n) < (1 << n) - 1  # frozen but for the last leaf
        yield n, CodeSpec(frozen_mask=natural[bit_reverse_permutation(n)])


@pytest.mark.parametrize("scheme", SCHEMES)
def test_c_equals_numpy(scheme, builds):
    q = parse_quant(scheme)
    rng = np.random.default_rng(int(q.internal_limit % 1000))
    for n, spec in sweep_codes():
        for rules in RULES:
            prog = compile_tree(build_tree(spec, 64, rules_from_names(rules)))
            frames = np.concatenate(sweep_frames(n, q.channel_limit, rng)).astype(np.int32)
            want = numpy_execute(prog, frames, q)
            for level, lib in builds.items():
                with on(lib):
                    for part in range(3):
                        x, ref = frames[128 * part:][:128], want[128 * part:][:128]
                        for b in BATCHES:
                            assert np.array_equal(execute(prog, x[:b], quant=q), ref[:b]), \
                                (level, n, rules, b)
                    # a single vector
                    assert np.array_equal(execute(prog, frames[5], quant=q), want[5]), level


FLOAT_BATCHES = (0, 1, 3, 7, 128)


def float_frames(family, n, rng):
    """128 float frames: noise, dense in exact zeros of both signs, huge: up
    to the float limit 2^(1023 - n), where a G at every stage reaches 2^1023,
    or cancelling: +-1 and +-0 with as many 1e300 as -1e300, placed at random,
    so that whether a sum absorbs a +-1 before its 1e300 and -1e300 cancel,
    and with it a REP's decision, depends on the order of its additions."""
    shape = (128, 1 << n)
    if family == "noise":
        return rng.normal(0.5, 2.0, shape)
    if family == "zeros":
        return rng.choice([-2.5, -1.0, -0.0, 0.0, 0.0, 0.75, 3.0], shape)
    if family == "cancel":
        x = rng.choice([-1.0, -0.0, 0.0, 1.0], shape)
        big = np.argsort(rng.random(shape), axis=1)[:, : 2 * max(1, shape[1] // 8)]
        np.put_along_axis(x, big, np.repeat([1e300, -1e300], big.shape[1] // 2), axis=1)
        return x
    huge = rng.choice([-1.0, -0.6, -0.35, 0.35, 0.6, 1.0], shape) * 2.0 ** (1023 - n)
    huge[:, ::7] = rng.choice([1.0, -0.0], huge[:, ::7].shape)
    return huge


@pytest.mark.parametrize("family", ["noise", "zeros", "huge", "cancel"])
def test_c_float_equals_numpy(family, builds):
    """Float F, G and REP in the library decide as the reference
    does, on every build, batch shape and rule set, for a single vector,
    float32, column-ordered and strided input too.  Only the sign of an
    intermediate zero may differ, and no decision reads it.  Huge frames, at the float limit,
    overflow no step, so neither path warns (RuntimeWarnings are errors
    here); the next double above the limit fails on both paths with one
    ValueError that names the limit.  Cancelling frames, on the repetition
    codes too, hold the library plan's REP to the reference's SC halving
    order.  The reference decides each frame alone, so its decode of the
    128 frames serves every batch and the single vector, which comes right
    after B = 1 and runs on its plan."""
    rng = np.random.default_rng(sum(map(ord, family)))
    codes = sweep_codes() if family != "cancel" else chain(rep_codes(), sweep_codes())
    for n, spec in codes:
        for rules in RULES:
            prog = compile_tree(build_tree(spec, 64, rules_from_names(rules)))
            x = float_frames(family, n, rng)
            want = numpy_execute(prog, x, None)
            calls = [(x[:b], want[:b]) for b in FLOAT_BATCHES]
            calls.insert(FLOAT_BATCHES.index(1) + 1, (x[5], want[5]))
            if family in ("noise", "zeros"):  # float32 holds these values
                v = x.astype(np.float32)
                calls.append((v, numpy_execute(prog, v, None)))
            # x's values in column order and strided: each decides as x does
            for v in (np.asfortranarray(x), np.repeat(x, 2, axis=1)[:, ::2]):
                assert np.array_equal(numpy_execute(prog, v, None), want)
                calls.append((v, want))
            for level, lib in builds.items():
                with on(lib):
                    for v, ref in calls:
                        assert np.array_equal(execute(prog, v), ref), \
                            (level, n, rules, v.shape, v.dtype, v.strides)
            if family != "huge":
                continue
            above = x[:3].copy()
            above[1, -1] = np.nextafter(2.0 ** (1023 - n), np.inf)
            for lib in [None, *builds.values()]:
                with on(lib), pytest.raises(ValueError, match=rf"\+-2\^{1023 - n} "):
                    execute(prog, above)


def test_float_rep_decides_as_sc(builds):
    """Float REP sums in SC's order, adding halves as its G-0R steps do, b +
    a, until one value is left.  On the repetition codes N = 4..1024 (k =
    1; from N = 32 on, G-0R steps lead down to a REP of 16), float execute
    equals sc_decode on frames of +-1e300, +-1, 0, 2 and -3, where a sum's
    sign depends on the order of its additions, on the numpy steps and on
    every build.  REP-SPC codes are left out: where Wagner's SPC half meets
    a tie it decides otherwise than SC, in any order."""
    rng = np.random.default_rng(26)
    for n, spec in rep_codes(range(2, 11)):
        prog = compile_tree(build_tree(spec, 64, rules_from_names("spc,rep,rep-spc")))
        x = rng.choice([1e300, -1e300, 1.0, -1.0, 0.0, 2.0, -3.0], (2000, 1 << n))
        want = sc_decode(x, spec)
        for lib in [None, *builds.values()]:
            with on(lib):
                assert np.array_equal(execute(prog, x), want), (n, lib)


def natural_code(frozen):
    """The code of a natural-order frozen pattern, as a string of 0s and 1s."""
    natural = np.array([c == "1" for c in frozen])
    return CodeSpec(frozen_mask=natural[bit_reverse_permutation(len(frozen).bit_length() - 1)])


def root_reader_codes(n):
    """(code, the first instruction's opcode name) for each kind of
    instruction that reads the root first, at N = 2^n: F, G-0R and R1 (k =
    N); at n = 5 also the roots of N <= 16: P-01, P-0SPC, the REP, ML and
    REP-SPC leaves, and the empty program.  A program of one instruction or
    none runs the reference loop, after check_channel_llrs, on every path."""
    N = 1 << n
    yield construct_frozen_set(n, N // 2, 0.5), "F"
    yield construct_frozen_set(n, N // 128 or 4, ebno_to_sigma2(2.0, 1 / 128)), "G-0R"
    yield CodeSpec(frozen_mask=np.zeros(N, bool)), "R1"
    if n == 5:
        yield natural_code("1100"), "P-01"
        yield natural_code("11111000"), "P-0SPC"
        yield natural_code("1" * 15 + "0"), "REP"
        yield natural_code("1010"), "ML"
        yield natural_code("11101000"), "REP-SPC"
        yield CodeSpec(frozen_mask=np.ones(16, bool)), None


@pytest.mark.parametrize("n", [5, 10])  # the root readers' loop below 64 pairs, and their tiles
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "above"])
def test_gather_checks_the_float_limit(n, bad, builds):
    """The root's readers check the float limit: on programs whose first
    instruction is each kind of root reader, a value at the limit decodes,
    on both paths and in sc_decode; NaN, +-inf and the next double above the
    limit at the first, a middle or the last position of one row fail there
    with one ValueError text.  A program of one instruction or none links no
    plan on any build."""
    rng = np.random.default_rng(n)
    for spec, first in root_reader_codes(n):
        prog = compile_tree(build_tree(spec, 64))
        assert (str(prog.instructions[0]).split()[0] if prog.instructions else None) == first
        linked = len(prog.instructions) > 1
        N, m = spec.N, spec.n_bits
        lim = 2.0 ** (1023 - m)
        value = np.nextafter(lim, np.inf) if bad == "above" else bad
        for b in (1, 3, 128):
            x = rng.choice([-lim, lim, -1.0, 0.5, -0.0], (b, N))
            want = numpy_execute(prog, x, None)
            sc_decode(x, spec)
            for lib in builds.values():
                with on(lib):
                    assert np.array_equal(execute(prog, x), want), (first, lib)
                assert bool(prog._plans) == linked, (first, lib)
            for pos in (0, (N // 2 + 3) % N, N - 1):
                y = x.copy()
                y[b // 2, pos] = value
                calls = [y, y[0]] if b == 1 else [y]
                for v in calls:
                    with pytest.raises(ValueError) as ref:
                        sc_decode(v, spec)
                    assert ("finite" if np.isnan(value) or np.isinf(value)
                            else f"+-2^{1023 - m} ") in str(ref.value)
                    for lib in [None, *builds.values()]:
                        with on(lib), pytest.raises(ValueError) as got:
                            execute(prog, v)
                        assert str(got.value) == str(ref.value), (first, lib, b, pos)


@pytest.mark.parametrize("scheme", ["6:4:0", "7:5:1", "15:12:2", "31:31:0"])  # int8, 16, 32
def test_c_range_check_equals_numpy(scheme, builds):
    """The compiled load checks the channel range: a value one past it, in
    frame 17 (a whole group of lanes) or in frame 69 (the one-lane rest of 70
    frames), raises numpy's ValueError, with its text."""
    q = parse_quant(scheme)
    lim = q.channel_limit
    prog = compile_tree(build_tree(construct_frozen_set(11, 1200, 0.5), 64))
    dtype = np.min_scalar_type(-lim - 1)  # the working type's width
    frames = np.random.default_rng(47).integers(-lim, lim + 1, (70, 2048)).astype(dtype)
    for frame in (17, 69):
        for value in (lim + 1, -(lim + 1)):
            x = frames.copy()
            x[frame, 1000] = value
            with on(None), pytest.raises(ValueError) as want:
                execute(prog, x, quant=q)
            for level, lib in builds.items():
                with on(lib), pytest.raises(ValueError) as got:
                    execute(prog, x, quant=q)
                assert str(got.value) == str(want.value), (level, frame, value)
    for level, lib in builds.items():
        with on(lib):
            assert execute(prog, frames, quant=q).shape == (70, 2048), level


def test_c_encoder_equals_numpy(builds):
    rng = np.random.default_rng(41)
    for n in range(1, 16):  # N < 64 fills part of one 64-bit word; N = 2^15 has 512
        N = 1 << n
        for spec in (CodeSpec(frozen_mask=np.ones(N, bool)),
                     CodeSpec(frozen_mask=np.zeros(N, bool)),
                     construct_frozen_set(n, max(1, N // 3), 0.5)):
            for lead in ((), (5,), (2, 3)):
                a = rng.integers(0, 2, lead + (spec.k,), dtype=np.uint8)
                inputs = a, a[..., ::-1]  # the second is not contiguous
                with on(None):
                    want = [encode_systematic(b, spec) for b in inputs]
                for level, lib in builds.items():
                    with on(lib):
                        got = [encode_systematic(b, spec) for b in inputs]
                    assert all(map(np.array_equal, got, want)), (level, n, spec.k, lead)


def test_failed_allocation_raises_memory_error(builds, monkeypatch):
    """The decoders and encode allocate their own workspace and return -1
    where malloc fails, here for N = 2^58, more than an address space holds;
    the engine and encode_systematic raise that as MemoryError."""
    q, table = parse_quant("7:5:1"), np.zeros((0, 3), np.int64)
    for level, lib in builds.items():
        for name in ("decode_int8_t", "decode_int16_t", "decode_int32_t"):
            entry = partial(getattr(lib, name), table.ctypes.data, 0, None, 58, 63, 15)
            with pytest.raises(MemoryError, match="could not allocate"):
                engine._run_c(entry, q, table, np.zeros((1, 4), np.int32))
        assert lib.encode(None, None, 1 << 58, 1, None) == -1, level
        monkeypatch.setattr(lib, "encode", lambda *args: -1)
        with on(lib), pytest.raises(MemoryError, match="could not allocate"):
            encode_systematic(np.zeros(8, np.uint8), construct_frozen_set(4, 8, 0.5))
        monkeypatch.undo()


def test_c_channel_equals_numpy_formula(builds):
    """((z*sigma + (1 - 2x)) * 2) / sigma^2 rounds as numpy's separate passes
    do; a build that contracts z*sigma + (1 - 2x) into one FMA fails here."""
    x = np.random.default_rng(43).integers(0, 2, 1 << 20, dtype=np.uint8)
    for sigma in (0.1, 0.6309573445, 0.7071067811865476, 1.3, 40.0):
        with on(None):
            want = awgn_bpsk_llr(x, sigma, np.random.default_rng(44))
        for level, lib in builds.items():
            assert lib.awgn is not None, (level, lib.draw_error)
            with on(lib):
                got = awgn_bpsk_llr(x, sigma, np.random.default_rng(44))
            assert np.array_equal(got, want), (level, sigma)


def draw_pair(seed, held=1):
    """Two equal generators over PCG64, each with a uint32 half buffered
    (has_uint32) where held is 1."""
    rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))) for _ in "ab"]
    for rng in rngs:
        rng.integers(0, 2**32, held, dtype=np.uint32)
    return rngs


def test_c_draws_equal_numpy_bit_for_bit(builds):
    """The bits and the noise of a PCG64 Generator, drawn in the library, take
    numpy's values and leave numpy's state: the draws after them agree too."""
    for level, lib in builds.items():
        assert lib.awgn is not None and lib.bits is not None, (level, lib.draw_error)
        for seed in range(200):
            for n in (0, 1, 7, 4096, 100_003):
                want_rng, got_rng = draw_pair(seed)
                with on(None):
                    want_x = simulate._random_bits(want_rng, (n,))
                    want = awgn_bpsk_llr(want_x, 0.7, want_rng)
                with on(lib):
                    got_x = simulate._random_bits(got_rng, (n,))
                    got = awgn_bpsk_llr(got_x, 0.7, got_rng)
                assert np.array_equal(got_x, want_x), (level, seed, n)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (level, seed, n)
                assert got_rng.bit_generator.state == want_rng.bit_generator.state
                assert np.array_equal(got_rng.integers(0, 1000, 9), want_rng.integers(0, 1000, 9))
                assert np.array_equal(got_rng.random(3), want_rng.random(3))


def test_c_bits_at_the_buffer_edges(builds):
    """The library reads the generator's words from a buffer of 512, 4096
    bits: draws that end just before, at and past its end, from a whole word
    or from a held uint32 half, take numpy's bits and leave its state."""
    for level, lib in builds.items():
        assert lib.bits is not None, (level, lib.draw_error)
        for held in (0, 1):
            for n in (4095, 4096, 4097, 4100):
                want_rng, got_rng = draw_pair(n, held)
                with on(None):
                    want = simulate._random_bits(want_rng, (n,))
                with on(lib):
                    got = simulate._random_bits(got_rng, (n,))
                assert np.array_equal(got, want), (level, held, n)
                assert got_rng.bit_generator.state == want_rng.bit_generator.state
                assert np.array_equal(got_rng.integers(0, 2, 9, np.uint8),
                                      want_rng.integers(0, 2, 9, np.uint8))


PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
INC = 0x5851F42D4C957F2D14057B7EF767814F


def drawing(word, inc=INC, at=0):
    """A Generator over PCG64 whose 64-bit word number `at` (0: the next) is
    `word`: a state whose XSL-RR output is the word, stepped back through the
    LCG, `at` words further for a later word."""
    rot, hi = 23, 23 << 58 | 0x0545F4914F6CDD1D
    lo = hi ^ ((word << rot | word >> 64 - rot) & (1 << 64) - 1)
    state = hi << 64 | lo
    for _ in range(at + 1):
        state = (state - inc) * pow(PCG64_MULT, -1, 1 << 128) % (1 << 128)
    bit_generator = np.random.PCG64()
    bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                           "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bit_generator)


def words_read(rng, n):
    """The number of 64-bit words each of rng's next n normals reads, as
    numpy draws them, from a copy of its state: 1 on the ziggurat's fast
    path, more where a value leaves it."""
    state = rng.bit_generator.state
    walker = np.random.PCG64()
    walker.state = state
    position = {}
    for k in range(2 * n + 64):
        position[walker.state["state"]["state"]] = k
        walker.random_raw()
    copy = np.random.Generator(np.random.PCG64())
    copy.bit_generator.state = state
    ends = []
    for _ in range(n):
        copy.standard_normal()
        ends.append(position[copy.bit_generator.state["state"]["state"]])
    return np.diff(ends, prepend=0)


def placed(word, at):
    """drawing(word, inc, at) with the first increment inc, stepping from
    INC, whose `at` words before `word` all take the fast path.  The library
    runs the fast path on groups of four words, from the draw's first word
    on, each group starting where the last one's values end: `word` then
    sits at lane `at % 4` of its group."""
    for inc in range(INC, INC + 200, 2):
        rng = drawing(word, inc, at)
        if (words_read(rng, at) == 1).all():
            return rng
    raise AssertionError("no increment places the word")


def test_c_normal_draw_at_the_fast_path_edges(builds):
    """numpy's ziggurat takes a word's 52-bit magnitude m on its fast path
    when m < ki[index]; at m = ki it reads more words (a wedge, or the tail
    at index 0).  The edge is found through numpy alone, by bisection over
    crafted words; the library agrees on both sides of it, for both signs,
    with the word at each lane of a group of four and as the last word of
    the library's first buffer of 512, and then draws on for 8 values.  An
    index-0 tail value on that last word, after 511 fast ones, reads its
    further words from the next buffer."""
    assert drawing(12345).bit_generator.random_raw() == 12345

    def fast(word):
        rng = drawing(word)
        rng.standard_normal()
        after = rng.bit_generator.state
        rng = drawing(word)
        rng.bit_generator.random_raw()
        return after == rng.bit_generator.state

    for idx in (0, 1, 2, 100, 254, 255):
        lo, hi = 0, 1 << 52
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if fast(mid << 9 | idx) else (lo, mid)
        for mag in {0, max(lo - 1, 0), lo, min(lo + 1, (1 << 52) - 1), (1 << 52) - 1}:
            for sign in (0, 1):
                word = mag << 9 | sign << 8 | idx
                draws_agree(drawing(word).bit_generator.state, 3, builds, (idx, mag, sign))
                for at in (0, 1, 2, 3, 511):
                    rng = placed(word, at) if at < 4 else drawing(word, at=at)
                    draws_agree(rng.bit_generator.state, at + 8, builds, (idx, mag, sign, at))
    # the tail: after 511 fast values, word 511 reads words 512 and 513 from the next fill
    tail = drawing((1 << 52) - 1 << 9, 0x5851F42D4C957F2D14057B7EF767978F, at=511)
    assert list(words_read(tail, 512)) == [1] * 511 + [3]
    draws_agree(tail.bit_generator.state, 520, builds, "tail")


def draws_agree(state, n, builds, case):
    """The n channel LLRs drawn from a PCG64 state, and the state after them,
    are numpy's on every build."""
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state
    with on(None):
        want = awgn_bpsk_llr(np.zeros(n, np.uint8), 1.5, rng), rng.bit_generator.state
    for level, lib in builds.items():
        assert lib.awgn is not None, (level, lib.draw_error)
        rng.bit_generator.state = state
        with on(lib):
            got = awgn_bpsk_llr(np.zeros(n, np.uint8), 1.5, rng)
        assert np.array_equal(got.view(np.int64), want[0].view(np.int64)), (level, case)
        assert rng.bit_generator.state == want[1], (level, case)


def test_self_test_draws_tail_values():
    """The load-time self-test's normals reach past the ziggurat's base strip,
    into the tail that numpy's own code draws.  They also miss the fast path
    at each lane of the library's groups of four (see `placed`), and read
    more than the 512 words of one buffer."""
    rng = np.random.Generator(np.random.PCG64(_clib._SELF_TEST_SEED))
    rng.integers(0, 2, 4097, dtype=np.uint8)
    used = words_read(rng, 4097)
    assert np.count_nonzero(np.abs(rng.standard_normal(4097)) > 3.6541528853610088) >= 3
    lanes, first = set(), 0
    while first + 4 <= used.size:
        miss = next((j for j in range(4) if used[first + j] > 1), None)
        lanes.add(miss)
        first += 4 if miss is None else miss + 1
    assert lanes == {None, 0, 1, 2, 3}
    assert used.sum() > 512


@pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.PCG64DXSM,
                                           np.random.MT19937])
def test_other_generators_draw_through_numpy(bit_generator, builds):
    x = np.random.default_rng(1).integers(0, 2, (3, 100), dtype=np.uint8)
    with on(None):
        rng = np.random.Generator(bit_generator(5))
        want = simulate._random_bits(rng, (3, 100)), awgn_bpsk_llr(x, 0.8, rng)
    for level, lib in builds.items():
        rng = np.random.Generator(bit_generator(5))
        with on(lib), mock.patch.object(_clib, "pcg64_call", side_effect=AssertionError):
            got = simulate._random_bits(rng, (3, 100)), awgn_bpsk_llr(x, 0.8, rng)
        assert all(map(np.array_equal, got, want)), level


def test_threads_sharing_a_generator_take_its_lock(builds):
    """Each call draws one unbroken stretch of the stream, under the bit
    generator's lock: a held lock blocks the draw, and four threads sharing
    one generator draw exactly the stretches of a serial run."""
    x = np.random.default_rng(2).integers(0, 2, 5000, dtype=np.uint8)
    with on(None):
        ref = np.random.default_rng(9)
        want = sorted(awgn_bpsk_llr(x, 0.6, ref).tobytes() for _ in range(40))
    for level, lib in builds.items():
        assert lib.awgn is not None, (level, lib.draw_error)
        rng = np.random.default_rng(9)
        with on(lib):
            rng.bit_generator.lock.acquire()
            t = threading.Thread(target=awgn_bpsk_llr, args=(x, 0.6, rng))
            t.start()
            t.join(timeout=0.2)
            held = t.is_alive()
            rng.bit_generator.lock.release()
            t.join(timeout=30)
            assert held and not t.is_alive(), level
            rng = np.random.default_rng(9)
            barrier, got = threading.Barrier(4, timeout=30), []

            def worker():
                barrier.wait()
                got.extend(awgn_bpsk_llr(x, 0.6, rng).tobytes() for _ in range(10))

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=worker) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(got) == want, level
        assert rng.bit_generator.state == ref.bit_generator.state


def draws_of(lib):
    with on(lib):
        rng = np.random.default_rng(4)
        x = simulate._random_bits(rng, (6, 70))
        return x, awgn_bpsk_llr(x, 0.9, rng), rng.bit_generator.state


def test_library_exports_none_of_numpys_distributions(builds):
    """Linked with --exclude-libs on Linux, the library keeps numpy.random's
    archive to itself: none of its functions is exported, and the draws that
    call them still pass their self-test.  Where nm is on PATH, each build
    exports exactly the entries that _clib binds."""
    if not sys.platform.startswith("linux"):
        pytest.skip("--exclude-libs is a GNU ld option")
    for level, lib in builds.items():
        assert lib.draw_error is None, (level, lib.draw_error)
        assert not hasattr(lib, "random_beta"), level
        assert not hasattr(lib, "random_standard_normal"), level
        if shutil.which("nm"):
            nm = subprocess.run(["nm", "-D", "--defined-only", lib._name], check=True,
                                capture_output=True, text=True).stdout
            assert {line.split()[-1] for line in nm.splitlines()} == \
                set(_clib._SIGNATURES | _clib._DRAWS), level


def test_missing_archive_leaves_the_draws_to_numpy(builds, tmp_path, monkeypatch):
    if not builds:
        pytest.skip("no C compiler")
    monkeypatch.setattr(_clib, "_numpy_random_archive", lambda: None)
    lib = _clib.variant("baseline", cache_dir=tmp_path)
    assert lib.awgn is None and lib.bits is None
    monkeypatch.setattr(_clib, "variant", lambda *args: lib)
    with pytest.warns(UserWarning) as record:
        assert _clib.library.__wrapped__() is lib
    assert len(record) == 1
    assert "compiled noise draw is unavailable (numpy.random's libnpyrandom.a was not " \
           "found); numpy draws" in str(record[0].message)
    with mock.patch.object(_clib, "pcg64_call", side_effect=AssertionError):
        got = draws_of(lib)
    want = draws_of(None)
    assert all(map(np.array_equal, got[:2], want[:2])) and got[2] == want[2]


def test_failed_self_test_leaves_the_draws_to_numpy(builds, monkeypatch):
    if not builds:
        pytest.skip("no C compiler")
    monkeypatch.setattr(_clib, "_self_test", lambda dll: "its self-test failed")
    with pytest.warns(UserWarning) as record:
        lib = _clib.library.__wrapped__()
    assert len(record) == 1
    assert "compiled noise draw is unavailable (its self-test failed)" in str(record[0].message)
    assert lib.awgn is None and lib.bits is None
    with mock.patch.object(_clib, "pcg64_call", side_effect=AssertionError):
        got = draws_of(lib)
    want = draws_of(None)
    assert all(map(np.array_equal, got[:2], want[:2])) and got[2] == want[2]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_c_quantizer_equals_numpy(scheme, builds):
    """Ties, their float neighbours, signed zeros, infinities, the range ends and NaN."""
    q = parse_quant(scheme)
    lim, scale = q.channel_limit, q.scale
    ks = np.unique(np.r_[np.arange(min(lim, 40) + 2), lim - 1 + np.arange(3)])
    ties = (ks + 0.5) / scale
    x = np.r_[ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf), ks / scale,
              0.0, -0.0, np.inf, 1e300, 5e-324, np.nextafter(0.5, 0) / scale]
    x = np.r_[x, -x]
    with on(None):
        want = quantize_channel(x, q)
        scalars = [quantize_channel(float(v), q) for v in x[:40]]
    for level, lib in builds.items():
        with on(lib):
            assert np.array_equal(quantize_channel(x.reshape(2, -1), q), want.reshape(2, -1)), level
            assert [quantize_channel(float(v), q) for v in x[:40]] == scalars
            with pytest.raises(ValueError, match="NaN"):
                quantize_channel(np.r_[x, np.nan], q)


def test_c_path_is_active_when_a_compiler_is_on_path(tmp_path):
    has_cc = shutil.which("cc") is not None
    assert (_clib.library() is not None) == has_cc
    # a fresh cache holds the baseline build afterwards, and the x86-64-v3
    # one where the baseline's probe passes, each under its keyed name; the
    # library is the v3 build exactly where the probe passes
    lib = _clib.library.__wrapped__("cc", tmp_path)
    assert (lib is not None) == has_cc
    names = sorted(p.name for p in tmp_path.iterdir())
    v3 = has_cc and bool(lib.cpu_supports_x86_64_v3())
    assert [name.rsplit("-", 1)[0] for name in names] == (
        ["_cengine-baseline"] * has_cc + ["_cengine-x86-64-v3"] * v3)
    assert all(name.endswith(".so") for name in names)
    assert not has_cc or ("x86-64-v3" in lib._name) == v3


def test_failed_v3_build_runs_the_baseline(builds, tmp_path):
    if "x86-64-v3" not in builds:
        pytest.skip("this CPU does not run x86-64-v3 code")
    cc, log = tmp_path / "cc", tmp_path / "cc.log"
    real = shutil.which("cc")
    cc.write_text(f"#!{sys.executable}\nimport os, sys\n"
                  f"open({str(log)!r}, 'a').write(' '.join(sys.argv) + '\\n')\n"
                  "if '-march=x86-64-v3' in sys.argv:\n    sys.exit(1)\n"
                  f"os.execv({real!r}, [{real!r}] + sys.argv[1:])\n")
    cc.chmod(0o755)
    # the second call loads the cached baseline build and the recorded v3 failure
    for _ in range(2):
        with pytest.warns(UserWarning, match="the x86-64-v3 build is unavailable"):
            lib = _clib.library.__wrapped__(str(cc), tmp_path / "cache")
        assert "baseline" in lib._name
    assert ["-march=x86-64-v3" in call for call in log.read_text().splitlines()] == [False, True]


def failing_compiler(path):
    """A compiler that logs its call to path.log, writes part of its output,
    then fails."""
    path.write_text(
        f"#!{sys.executable}\nimport sys\n"
        f"open({str(path) + '.log'!r}, 'a').write(' '.join(sys.argv) + '\\n')\n"
        "open(sys.argv[sys.argv.index('-o') + 1], 'wb').write(b'partial')\nsys.exit(1)\n"
    )
    path.chmod(0o755)
    return path


@pytest.mark.parametrize("compiler", ["missing", "failing"])
def test_failed_build_falls_back_to_numpy(compiler, tmp_path, monkeypatch):
    cc = tmp_path / "cc"
    reason = "no C compiler"
    if compiler == "failing":
        failing_compiler(cc)
        reason = "returned non-zero exit status 1"
    cache = tmp_path / "cache"
    q = parse_quant("7:5:1")
    prog = compile_tree(build_tree(construct_frozen_set(9, 300, 0.5), 64))
    x = sweep_frames(9, q.channel_limit, np.random.default_rng(3))[0].astype(np.int32)
    want = execute(prog, x, quant=q)  # the C path when a compiler is on PATH
    build = partial(_clib.library.__wrapped__, str(cc), cache)
    with pytest.warns(UserWarning, match=reason):
        assert build() is None
    monkeypatch.setattr(_clib, "library", build)
    with pytest.warns(UserWarning, match="fixed point runs on the slower numpy steps"):
        assert np.array_equal(execute(prog, x, quant=q), want)
    # no partial library: a failed compile leaves only its record
    assert [p.suffix for p in cache.glob("*")] == [".failed"] * (compiler == "failing")


def test_failed_build_is_recorded(tmp_path):
    """A compiler that fails runs once: later calls on the same cache raise
    the recorded reason, with the same warning; a changed compiler tries again."""
    cc = failing_compiler(tmp_path / "cc")
    build = partial(_clib.library.__wrapped__, str(cc), tmp_path / "cache")

    def calls():
        return len((tmp_path / "cc.log").read_text().splitlines())

    with pytest.warns(UserWarning, match="exit status 1"):
        assert build() is None
    with pytest.warns(UserWarning, match="exit status 1.*recorded in"):
        assert build() is None
    assert calls() == 1
    mtime = cc.stat().st_mtime_ns + 10**9  # a new compiler at the same path
    os.utime(cc, ns=(mtime, mtime))
    with pytest.warns(UserWarning, match="exit status 1"):
        assert build() is None
    assert calls() == 2


def test_fallback_warns_once_per_process(tmp_path):
    """With no compiler and an empty cache, a process warns once, however
    many fixed-point calls it makes, even where every warning is shown.  Its
    first call is a pooled simulation, whose threads race the first load."""
    script = (
        "import warnings; warnings.simplefilter('always')\n"
        "import numpy as np\n"
        "from fastssc.compiler import build_tree, compile_tree\n"
        "from fastssc.engine import execute\n"
        "from fastssc.polar import construct_frozen_set, encode_systematic\n"
        "from fastssc.quantize import parse_quant, quantize_channel\n"
        "from fastssc.simulate import SimConfig, awgn_bpsk_llr, run_simulation\n"
        "run_simulation(SimConfig(spec=construct_frozen_set(5, 20, 0.5), ebno_db=(2.0,), "
        "quant=parse_quant('7:5:1'), max_frames=32, batch_size=8, workers=4))\n"
        "prog = compile_tree(build_tree(construct_frozen_set(5, 20, 0.5), 64))\n"
        "for _ in range(3):\n"
        "    x = encode_systematic(np.zeros((2, 20), np.uint8), prog.spec)\n"
        "    llr = quantize_channel(awgn_bpsk_llr(x, 0.5, np.random.default_rng(0)), "
        "parse_quant('7:5:1'))\n"
        "    execute(prog, llr, quant=parse_quant('7:5:1'))\n"
    )
    src = os.path.dirname(os.path.dirname(engine.__file__))  # this fastssc, also in the child
    env = dict(os.environ, PATH=str(tmp_path), XDG_CACHE_HOME=str(tmp_path),
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stderr.count("UserWarning: fastssc: the compiled library is unavailable "
                            "(no C compiler 'cc' on PATH)") == 1
    assert run.stderr.count("Warning") == 1


def decode_concurrently(prog, inputs, serial, quant=None):
    """Two threads, each decoding its input 30 times at a 10-us switch
    interval; returns each thread's count of outputs that differ from serial."""
    barrier = threading.Barrier(2, timeout=30)
    wrong = [0, 0]

    def worker(i):
        barrier.wait()
        for _ in range(30):
            wrong[i] += not np.array_equal(execute(prog, inputs[i], quant=quant), serial[i])

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
    return wrong


def test_concurrent_calls_on_the_c_path():
    q = parse_quant("16:12:2")
    prog = compile_tree(build_tree(construct_frozen_set(11, 1200, 0.5), 64))
    rng = np.random.default_rng(23)
    inputs = [rng.integers(-q.channel_limit, q.channel_limit + 1, (128, 2048)).astype(np.int32)
              for _ in range(2)]
    serial = [numpy_execute(prog, x, q) for x in inputs]
    assert decode_concurrently(prog, inputs, serial, q) == [0, 0]


def test_concurrent_float_calls_on_the_c_path(monkeypatch):
    """Each running call takes an idle plan off its shape's stack, so the two
    threads' C steps, which run without the GIL, never share a buffer, and
    puts it back, so no plan is lost: every plan linked is idle afterwards,
    at most one a thread."""
    prog = compile_tree(build_tree(construct_frozen_set(11, 1200, 0.5), 64))
    rng = np.random.default_rng(24)
    inputs = [rng.normal(0.5, 2.0, (128, 2048)) for _ in range(2)]
    serial = [numpy_execute(prog, x, None) for x in inputs]
    linked, link = [], engine._link
    monkeypatch.setattr(engine, "_link", lambda *args: linked.append(args) or link(*args))
    assert decode_concurrently(prog, inputs, serial) == [0, 0]
    assert len(linked) == sum(map(len, prog._plans.values())) <= 2


def test_float_plans_hold_their_buffers(builds):
    """A C step holds buffer addresses, not arrays, so its plan holds the
    arrays: its stage buffers below the root, 8*B*(N - 1) bytes of floats,
    and no (B, N) float array, as the root is the call's input.  Decoding
    stays exact after other shapes evict a plan and the collector runs, and
    a plan taken out of its program, with every other reference dropped and
    the freed memory reused, still decodes."""
    prog = compile_tree(build_tree(construct_frozen_set(11, 1200, 0.5), 64))
    x = np.random.default_rng(25).normal(0.5, 2.0, (16, 2048))
    want = numpy_execute(prog, x, None)
    for level, lib in builds.items():
        with on(lib):
            for b in (16, 5, 3, 16, 1, 7, 16):  # two plans are kept: each shape evicts
                assert np.array_equal(execute(prog, x[:b]), want[:b]), (level, b)
                gc.collect()
            prog._plans.clear()
            execute(prog, x)
            ((plan,),) = prog._plans.values()  # one shape, one idle plan
            held = chain.from_iterable(a if isinstance(a, list) else [a] for a in plan.args)
            floats = [a for a in held if isinstance(a, np.ndarray) and a.dtype.kind == "f"]
            assert sum(a.nbytes for a in floats) == 8 * 16 * (2048 - 1), level
            assert all(a.shape[1] < 2048 for a in floats), level
            prog._plans.clear()
            gc.collect()
            reused = [np.full((16, 1 << s), np.nan) for s in range(12)]
            assert np.array_equal(plan(x), want), level
            del reused


def test_library_patched_away_runs_the_numpy_steps(builds, monkeypatch):
    """Plans are cached per library: with `_clib.library` patched to None
    mid-process, a shape already linked on the library runs the reference,
    and patched back it runs the library's plan again."""
    q = parse_quant("7:5:1")
    prog = compile_tree(build_tree(construct_frozen_set(10, 600, 0.5), 64))
    x = np.random.default_rng(26).normal(0.5, 2.0, (8, 1024))
    reference, calls = engine._reference, []
    monkeypatch.setattr(engine, "_reference",
                        lambda *args: calls.append(1) or reference(*args))
    for level, lib in builds.items():
        for quant, v in ((None, x), (q, quantize_channel(x, q))):
            with on(lib):
                want = execute(prog, v, quant=quant)
            assert not calls, level
            with on(None):
                assert np.array_equal(execute(prog, v, quant=quant), want), (level, quant)
            assert calls, (level, quant)
            calls.clear()
            with on(lib):
                assert np.array_equal(execute(prog, v, quant=quant), want), (level, quant)
            assert not calls, (level, quant)
