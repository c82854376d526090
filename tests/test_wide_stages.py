"""Wide-stage decoding: row-blocked F, the finite-input check, and what one
`execute` call allocates.

An F whose (B, 2^s) output is larger than `engine._F_BLOCK_BYTES` runs over
row blocks, so its temporary stays in cache.  The blocked plan must decode
exactly as one F over the whole batch does, which is the plan linked with
a budget larger than any buffer.
"""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from fastssc import engine
from fastssc.compiler import Opcode, build_tree, compile_tree
from fastssc.engine import execute
from fastssc.polar import construct_frozen_set
from fastssc.quantize import parse_quant, quantize_channel

BATCHES = (1, 3, 7, 128)
FINITE_MSG = "channel LLRs must be finite"


@lru_cache(maxsize=1)
def float_frames(n):
    """128 channel vectors with ±0.0 and integer values; the last is integer-valued."""
    x = np.random.default_rng(n).normal(1.0, 2.0, size=(128, 1 << n))
    x[:, ::5] = np.round(x[:, ::5])
    x[:, 1::7] = 0.0
    x[:, 2::11] = -0.0
    x[-1] = np.round(x[-1])
    x.setflags(write=False)
    return x


def frames(n, scheme):
    if scheme is None:
        return float_frames(n)
    # a wide channel range, so G saturates wherever 2*channel_limit > internal_limit
    return quantize_channel(float_frames(n) * (scheme.channel_limit / 3), scheme)


def decode_all(spec, x, q):
    prog = compile_tree(build_tree(spec, 256))  # fresh: plans are cached on the program
    return [execute(prog, x[:b], quant=q) for b in BATCHES]


@pytest.mark.parametrize("scheme", [None, "6:4:0", "8:8:0", "16:12:2", "31:31:0"])
@pytest.mark.parametrize("n", range(9, 16))
def test_blocked_f_equals_whole_batch_f(n, scheme, monkeypatch):
    q = parse_quant(scheme) if scheme else None
    spec = construct_frozen_set(n, (1 << n) * 3 // 4, 0.5)
    x = frames(n, q)
    blocked = decode_all(spec, x, q)
    monkeypatch.setattr(engine, "_F_BLOCK_BYTES", 1 << 62)  # no F is wide
    for b, got, want in zip(BATCHES, blocked, decode_all(spec, x, q)):
        assert np.array_equal(got, want), b


@pytest.mark.parametrize("batch", BATCHES)
def test_f_blocks_fit_the_budget(batch, monkeypatch):
    """Every F call writes at most the byte budget or one row; narrow F is
    one call over the whole batch, and row blocks cover the batch with a
    short last block when the block height does not divide it."""
    calls = []
    f = engine._f

    def spy(a, b, out, tmp):
        calls.append((out.shape, tmp.shape))
        f(a, b, out, tmp)

    monkeypatch.setattr(engine, "_f", spy)
    spec = construct_frozen_set(15, 29492, 0.5)
    prog = compile_tree(build_tree(spec, 256))
    x = frames(15, None)[:batch]
    execute(prog, x)
    budget = engine._F_BLOCK_BYTES
    per_stage = {}
    for (rows, width), tmp in calls:
        assert tmp == (rows, width)
        assert rows * width * 8 <= budget or rows == 1
        per_stage.setdefault(width, []).append(rows)
    # REP-SPC runs one F of its own
    f_count = sum(ins.op in (Opcode.F, Opcode.REP_SPC) for ins in prog.instructions)
    if batch == 1:
        assert len(calls) == f_count
    else:  # (B, 16384) float64 is 16 MB at B=128: blocked
        assert len(calls) > f_count
        block = max(1, budget // (16384 * 8))
        want = [block] * (batch // block) + ([batch % block] if batch % block else [])
        assert per_stage[16384] == want


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_non_finite_input_is_rejected(value, where):
    spec = construct_frozen_set(6, 40, 0.5)
    prog = compile_tree(build_tree(spec, 64))
    for shape in ((5, 64), (64,)):
        x = np.ones(shape)
        flat = x.reshape(-1)
        flat[{"first": 0, "middle": flat.size // 2, "last": -1}[where]] = value
        with pytest.raises(ValueError, match=FINITE_MSG):
            execute(prog, x)


def test_integer_and_empty_input_in_float_domain():
    spec = construct_frozen_set(6, 40, 0.5)
    prog = compile_tree(build_tree(spec, 64))
    x = np.random.default_rng(2).integers(-3, 4, size=(5, 64))
    assert np.array_equal(execute(prog, x), execute(prog, x.astype(np.float64)))
    for dtype in (np.float64, np.int32):
        out = execute(prog, np.zeros((0, 64), dtype))
        assert out.shape == (0, 64) and out.dtype == np.uint8


def test_warm_execute_allocates_only_its_result():
    batch, n = 64, 12
    spec = construct_frozen_set(n, 3000, 0.5)
    prog = compile_tree(build_tree(spec, 256))
    x = frames(n, None)[:batch]
    want = execute(prog, x)  # links the plan
    tracemalloc.start()
    try:
        got = execute(prog, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < 1.5 * batch * (1 << n), peak
