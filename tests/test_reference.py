import re

import numpy as np
import pytest

from fastssc.compiler import build_tree, compile_tree
from fastssc.engine import execute
from fastssc.polar import (
    CodeSpec,
    construct_frozen_set,
    encode_polar,
    encode_systematic,
)
from fastssc.quantize import QuantScheme, quantize_channel
from fastssc.reference import sc_decode


def spec_n2():
    return CodeSpec(frozen_mask=np.array([True, False]))


def test_n2_hand_traces():
    spec = spec_n2()
    assert np.array_equal(sc_decode(np.array([-1.0, 3.0]), spec), [0, 0])
    assert np.array_equal(sc_decode(np.array([5.0, -1.0]), spec), [0, 0])
    # info bit decides 1: g(1, -3, 0) = -2 < 0
    assert np.array_equal(sc_decode(np.array([1.0, -3.0]), spec), [1, 1])


def test_length_validation():
    with pytest.raises(ValueError):
        sc_decode(np.zeros(4), spec_n2())
    # a 0-d input has no length to read
    with pytest.raises(ValueError):
        sc_decode(1.0, spec_n2())


def test_rejects_what_execute_rejects():
    """NaN, infinite, non-integer fixed-point and out-of-range channel LLRs
    fail with execute's messages."""
    spec = construct_frozen_set(3, 4, 0.5)
    prog = compile_tree(build_tree(spec, 8))
    q = QuantScheme(7, 5, 1)
    frame = np.ones(8)
    cases = [(np.where(np.arange(8) == 0, bad, frame), None) for bad in (np.nan, np.inf, -np.inf)]
    cases += [(frame, q), (frame.astype(np.int32) * 16, q), (frame.astype(np.int32) * -16, q)]
    for x, quant in cases:
        with pytest.raises(ValueError) as want:
            execute(prog, x, quant=quant)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            sc_decode(x, spec, quant=quant)


def test_noiseless_decodes_exactly():
    rng = np.random.default_rng(0)
    for n in (2, 4, 6, 8):
        N = 1 << n
        spec = construct_frozen_set(n, max(1, int(0.7 * N)), 0.5)
        a = rng.integers(0, 2, size=(16, spec.k), dtype=np.uint8)
        x = encode_systematic(a, spec)
        llr = 9.0 * (1.0 - 2.0 * x.astype(np.float64))
        assert np.array_equal(sc_decode(llr, spec), x)


def test_output_is_always_a_codeword():
    """Even under heavy noise the estimate must satisfy the frozen checks."""
    rng = np.random.default_rng(1)
    spec = construct_frozen_set(6, 40, 0.5)
    llr = rng.normal(size=(200, 64))
    out = sc_decode(llr, spec)
    u = encode_polar(out)
    assert not u[:, spec.frozen_mask].any()


def test_deterministic():
    rng = np.random.default_rng(2)
    spec = construct_frozen_set(5, 20, 0.5)
    llr = rng.normal(size=32)
    first = sc_decode(llr, spec)
    assert np.array_equal(sc_decode(llr, spec), first)


def test_single_frame_shape():
    spec = construct_frozen_set(4, 10, 0.5)
    out = sc_decode(np.ones(16), spec)
    assert out.shape == (16,)
    out = sc_decode(np.ones((3, 16)), spec)
    assert out.shape == (3, 16)


def test_quantized_domain_matches_float_when_unsaturated():
    rng = np.random.default_rng(3)
    spec = construct_frozen_set(5, 20, 0.5)
    q = QuantScheme(12, 6, 0)  # wide internal range: no saturation in play
    llr_i = rng.integers(-31, 32, size=(100, 32)).astype(np.int32)
    out_f = sc_decode(llr_i.astype(np.float64), spec)
    out_q = sc_decode(llr_i, spec, quant=q)
    assert np.array_equal(out_f, out_q)


def test_quantized_saturation_still_gives_codewords():
    rng = np.random.default_rng(4)
    spec = construct_frozen_set(5, 24, 0.5)
    q = QuantScheme(5, 5, 0)  # aggressive clipping
    llr = quantize_channel(rng.normal(scale=8.0, size=(100, 32)), q)
    out = sc_decode(llr, spec, quant=q)
    u = encode_polar(out)
    assert not u[:, spec.frozen_mask].any()
