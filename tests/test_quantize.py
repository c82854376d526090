from unittest import mock

import numpy as np
import pytest

from fastssc import _clib
from fastssc.quantize import QuantScheme, parse_quant, quantize_channel


def test_parse_quant():
    q = parse_quant("7:5:1")
    assert (q.w_internal, q.w_channel, q.f_frac) == (7, 5, 1)
    assert parse_quant("float") is None
    assert parse_quant("none") is None
    assert str(parse_quant("6:4:0")) == "6:4:0"


def test_parse_quant_rejects_garbage():
    for bad in ("7:5", "7:5:1:0", "a:b:c", "7;5;1"):
        with pytest.raises(ValueError):
            parse_quant(bad)


def test_scheme_field_validation():
    with pytest.raises(ValueError):
        QuantScheme(1, 1, 0)
    with pytest.raises(ValueError):
        QuantScheme(6, 7, 0)  # channel wider than internal
    with pytest.raises(ValueError):
        QuantScheme(6, 4, 4)  # fractional bits must fit the channel width
    with pytest.raises(ValueError):
        QuantScheme(6, 4, -1)


def test_internal_width_is_bounded():
    # wider internal values would not fit the engine's int32 working type
    # (and the int32 channel quantizer would wrap)
    assert QuantScheme(31, 31, 0).internal_limit == 2**30 - 1
    with pytest.raises(ValueError):
        QuantScheme(32, 20, 0)
    with pytest.raises(ValueError):
        parse_quant("40:36:0")


def test_scheme_limits():
    q = QuantScheme(7, 5, 1)
    assert q.internal_limit == 63
    assert q.channel_limit == 15
    assert q.scale == 2.0
    q = QuantScheme(6, 4, 0)
    assert q.internal_limit == 31
    assert q.channel_limit == 7
    assert q.scale == 1.0


def test_quantize_channel_values():
    q751 = QuantScheme(7, 5, 1)
    q640 = QuantScheme(6, 4, 0)
    assert quantize_channel(0.0, q640) == 0
    assert quantize_channel(3.7, q751) == 7
    assert quantize_channel(-100.0, q640) == -7
    assert quantize_channel(100.0, q640) == 7


def test_quantize_channel_ties_away_from_zero():
    q = QuantScheme(6, 4, 0)
    assert quantize_channel(0.5, q) == 1
    assert quantize_channel(-0.5, q) == -1
    assert quantize_channel(1.5, q) == 2
    assert quantize_channel(2.5, q) == 3
    # with one fractional bit the tie sits at odd multiples of 0.25
    q = QuantScheme(7, 5, 1)
    assert quantize_channel(1.25, q) == 3
    assert quantize_channel(-1.25, q) == -3


def test_quantize_channel_monotone():
    q = QuantScheme(6, 4, 1)
    rng = np.random.default_rng(0)
    x = np.sort(rng.normal(scale=6.0, size=4000))
    v = quantize_channel(x, q)
    assert (np.diff(v) >= 0).all()


def test_quantize_channel_odd_symmetry():
    """Negating the input negates the output; the range is symmetric."""
    q = QuantScheme(7, 5, 1)
    rng = np.random.default_rng(1)
    x = rng.normal(scale=10.0, size=5000)
    v = quantize_channel(x, q)
    assert np.array_equal(quantize_channel(-x, q), -v)
    assert v.max() <= q.channel_limit
    assert v.min() >= -q.channel_limit


def test_quantize_channel_array_form():
    q = QuantScheme(6, 4, 0)
    v = quantize_channel([[0.4, -3.6], [99.0, -0.5]], q)
    assert v.dtype == np.int32
    assert v.shape == (2, 2)
    assert np.array_equal(v, [[0, -4], [7, -1]])
    assert isinstance(quantize_channel(1.0, q), int)


def parent_quantize(llr, scheme):
    """The original formula: round sign(s)*floor(|s| + 0.5), then clip."""
    scaled = np.asarray(llr, dtype=np.float64) * scheme.scale
    q = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    lim = scheme.channel_limit
    return np.clip(q, -lim, lim).astype(np.int32)


SCHEMES = [QuantScheme(6, 4, 0), QuantScheme(7, 5, 1), QuantScheme(8, 8, 0),
           QuantScheme(16, 12, 3), QuantScheme(31, 31, 5)]


def quantize_grid(scheme):
    """Ties at +-(k + 0.5), their float neighbours, signed zeros, huge and infinite values."""
    lim = scheme.channel_limit
    ks = np.unique(np.r_[np.arange(min(lim, 40) + 3), lim - 2 + np.arange(5)])
    ties = (ks + 0.5) / scheme.scale
    near = np.r_[ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf), ks / scheme.scale]
    special = [0.0, -0.0, 1e300, -1e300, np.inf, -np.inf, 5e-324, 0.49999999999999994]
    rng = np.random.default_rng(7)
    noise = rng.normal(scale=lim / scheme.scale, size=2000)
    x = np.r_[near, special, noise]
    return np.r_[x, -x]


def test_quantize_channel_equals_original_formula():
    for scheme in SCHEMES:
        x = quantize_grid(scheme)
        want = parent_quantize(x, scheme)
        got = quantize_channel(x, scheme)
        assert got.dtype == np.int32
        assert np.array_equal(got, want), scheme
        assert np.array_equal(quantize_channel(x.reshape(2, -1), scheme), want.reshape(2, -1))
        assert [quantize_channel(float(v), scheme) for v in x[:50]] == want[:50].tolist()


def test_quantize_channel_rejects_nan():
    q = QuantScheme(7, 5, 1)
    for bad in (np.nan, [1.0, np.nan, -np.inf], np.full((2, 3), np.nan)):
        with pytest.raises(ValueError, match="NaN"):
            quantize_channel(bad, q)
    # infinities are not NaN: they saturate
    assert np.array_equal(quantize_channel([np.inf, -np.inf], q), [15, -15])


def test_quantize_channel_pinned_values_and_peak(builds):
    """Ties, signed zeros, infinities, the range ends and the float edge, also in a large batch."""
    import tracemalloc

    edge = np.nextafter(0.5, 0)  # edge + 0.5 rounds to 1.0, so it quantizes to 1 at F = 0
    for scheme in (QuantScheme(6, 4, 0), QuantScheme(31, 31, 0), QuantScheme(7, 5, 1)):
        lim = scheme.channel_limit
        x = np.array([0.5, -0.5, 2.5, -2.5, 0.0, -0.0, np.inf, -np.inf, lim, -lim, edge, -edge])
        want = np.array([1, -1, 3, -3, 0, 0, lim, -lim, lim, -lim, 1, -1])
        x /= scheme.scale  # exact: the scale is a power of two
        for v, w in zip(x, want):
            assert quantize_channel(v, scheme) == w
        big = np.resize(x, (8, 12_501))
        got = quantize_channel(big, scheme)
        assert got.dtype == np.int32
        assert np.array_equal(got, np.resize(want, big.shape))

    # at (128, 2048) every compiled build allocates the 1 MB int32 result and
    # no 2 MB float64 copy of the batch
    q = QuantScheme(7, 5, 1)
    llr = np.random.default_rng(3).normal(scale=4.0, size=(128, 2048))
    for level, lib in builds.items():
        with mock.patch.object(_clib, "library", lambda: lib):
            tracemalloc.start()
            try:
                quantize_channel(llr, q)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1.5e6, level
