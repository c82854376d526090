"""Wide-stage decoding on the library against the reference, the
finite-input check, integer and empty input, and what one `execute` call
allocates."""

import tracemalloc
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest

from fastssc import _clib
from fastssc.compiler import build_tree, compile_tree
from fastssc.engine import execute
from fastssc.polar import construct_frozen_set
from fastssc.quantize import parse_quant, quantize_channel

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


@pytest.mark.parametrize("scheme", [None, "6:4:0", "8:8:0", "16:12:2", "31:31:0"])
@pytest.mark.parametrize("n", range(9, 16))
def test_blocked_f_equals_whole_batch_f(n, scheme):
    """The library's F runs in blocks of frames: one row at a time in the
    float plan, whole groups of lanes and a one-lane rest in the fixed-point
    decoder.  Over wide stages it decodes batches of 1, 3, 7 and 128 frames
    as the reference does, whose F is one step over the whole batch; the
    fixed-point channel range is wide, so G saturates wherever
    2*channel_limit > internal_limit."""
    q = parse_quant(scheme) if scheme else None
    prog = compile_tree(build_tree(construct_frozen_set(n, (1 << n) * 3 // 4, 0.5), 256))
    x = float_frames(n)
    if q is not None:
        x = quantize_channel(x * (q.channel_limit / 3), q)
    with mock.patch.object(_clib, "library", lambda: None):
        want = execute(prog, x, quant=q)
    for b in (1, 3, 7, 128):
        assert np.array_equal(execute(prog, x[:b], quant=q), want[:b]), b


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
    """Integer input decodes as its float64 values, and an empty batch gives
    an empty uint8 result, on the library and on the reference; so does int8
    input at 16:12:2, whose C decoder works in int16."""
    spec = construct_frozen_set(6, 40, 0.5)
    prog = compile_tree(build_tree(spec, 64))
    x = np.random.default_rng(2).integers(-3, 4, size=(5, 64))
    q = parse_quant("16:12:2")
    for lib in (_clib.library(), None):
        with mock.patch.object(_clib, "library", lambda: lib):
            assert np.array_equal(execute(prog, x), execute(prog, x.astype(np.float64)))
            assert np.array_equal(execute(prog, x.astype(np.int8), quant=q),
                                  execute(prog, x.astype(np.int32), quant=q))
            for dtype, quant in ((np.float64, None), (np.int32, None), (np.int32, q),
                                 (np.int8, q)):
                out = execute(prog, np.zeros((0, 64), dtype), quant=quant)
                assert out.shape == (0, 64) and out.dtype == np.uint8, (lib, dtype, quant)


def test_warm_execute_allocates_only_its_result(builds):
    """A warm call of the library's float plan, or of its fixed-point decoder
    on int32 frames, allocates only its result: the decoder's lane workspace
    is the library's own, allocated and freed inside the call."""
    if not builds:
        pytest.skip("no C compiler: the reference loop has no plan, and forms arrays at each step")
    batch, n = 64, 12
    spec = construct_frozen_set(n, 3000, 0.5)
    prog = compile_tree(build_tree(spec, 256))
    q = parse_quant("7:5:1")
    x = float_frames(n)[:batch]
    for quant, v in ((None, x), (q, quantize_channel(x, q).astype(np.int32, copy=False))):
        want = execute(prog, v, quant=quant)  # links or binds the plan
        tracemalloc.start()
        try:
            got = execute(prog, v, quant=quant)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want), quant
        assert peak < 1.5 * batch * (1 << n), (quant, peak)
