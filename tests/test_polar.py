import sys
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from fastssc.polar import (
    CodeSpec,
    MaskFileError,
    bit_reverse,
    bit_reverse_permutation,
    construct_frozen_set,
    encode_polar,
    encode_systematic,
    extract_info,
    load_spec,
    save_spec,
    spec_from_text,
    spec_to_text,
)

F2 = np.array([[1, 0], [1, 1]], dtype=np.uint8)


def transform_matrix(n_bits):
    return reduce(np.kron, [F2] * n_bits)


def mc_channel_error_rates(n_bits, sigma2, samples, seed=0):
    """Monte-Carlo genie-aided SC bit error rates, natural bit order.

    Transmits the all-zero codeword, runs the f/g recursion with correct
    (all-zero) feedback, and counts how often each bit decision would go
    wrong.  Independent of the library's construction code on purpose.
    """
    rng = np.random.default_rng(seed)
    N = 1 << n_bits
    llr = 2.0 / sigma2 + rng.normal(scale=2.0 / np.sqrt(sigma2), size=(samples, N))

    def split(a):
        if a.shape[1] == 1:
            return [a[:, 0]]
        h = a.shape[1] // 2
        left, right = a[:, :h], a[:, h:]
        f = np.sign(left) * np.sign(right) * np.minimum(np.abs(left), np.abs(right))
        g = right + left  # genie: beta_l is always zero
        return split(f) + split(g)

    per_bit = split(llr)
    return np.array([np.mean(b < 0) for b in per_bit])


def test_bit_reverse_values():
    assert bit_reverse(0, 3) == 0
    assert bit_reverse(3, 3) == 6
    assert bit_reverse(1, 4) == 8
    assert bit_reverse(6, 3) == 3


def test_bit_reverse_validation():
    with pytest.raises(ValueError):
        bit_reverse(8, 3)
    with pytest.raises(ValueError):
        bit_reverse(0, 0)


def test_bit_reverse_permutation_is_involution():
    for n in range(1, 9):
        p = bit_reverse_permutation(n)
        assert sorted(p) == list(range(1 << n))
        assert np.array_equal(p[p], np.arange(1 << n))
        assert all(p[i] == bit_reverse(i, n) for i in range(1 << n))


def encode_inputs(n, rng):
    """Inputs of length 2^n in every layout and dtype encode_polar accepts."""
    N = 1 << n
    bits = rng.integers(0, 2, size=(2, 3, 2 * N), dtype=np.uint8)
    return [
        bits[0, 0, :N],                                   # 1-D
        bits[0, :, :N],                                   # 2-D
        bits[:, :, N:],                                   # 3-D, offset view
        np.asfortranarray(bits[1, :, :N]),                # F-ordered
        bits[:, :, ::2],                                  # strided last axis
        bits[1, :, :N].astype(bool),
        bits[0, :, N:].astype(np.int64),
    ]


def test_encode_polar_matches_matrix_product():
    rng = np.random.default_rng(30)
    for n in range(1, 13):
        # float32 sums of at most 2^12 ones are exact
        G = transform_matrix(n).astype(np.float32)
        for u in encode_inputs(n, rng):
            before = u.copy()
            got = encode_polar(u)
            assert got.dtype == np.uint8 and got.shape == u.shape
            assert np.array_equal(got, (u.astype(np.float32) @ G) % 2), (n, u.shape, u.dtype)
            assert np.array_equal(u, before)


def test_encode_polar_byte_loop_matches_word_path(monkeypatch):
    # big-endian hosts run every stage byte by byte, as N < 8 does everywhere
    rng = np.random.default_rng(31)
    inputs = [u for n in range(1, 13) for u in encode_inputs(n, rng)]
    words = [encode_polar(u) for u in inputs]
    monkeypatch.setattr(sys, "byteorder", "big")
    for u, want in zip(inputs, words):
        assert np.array_equal(encode_polar(u), want)


def test_encode_polar_is_involution():
    rng = np.random.default_rng(4)
    u = rng.integers(0, 2, size=(20, 256), dtype=np.uint8)
    assert np.array_equal(encode_polar(encode_polar(u)), u)


def test_encode_polar_validation():
    with pytest.raises(ValueError):
        encode_polar([0, 1, 1])  # not a power of two
    with pytest.raises(ValueError):
        encode_polar(np.uint8(1))


def test_code_spec_basic():
    spec = construct_frozen_set(3, 5, 0.5)
    assert spec.N == 8
    assert spec.n_bits == 3
    assert spec.k == 5
    assert spec.frozen_mask.dtype == np.bool_
    assert spec.design_sigma2 == 0.5


def test_code_spec_validation():
    with pytest.raises(ValueError):
        CodeSpec(frozen_mask=np.zeros(6, dtype=bool))
    mask = np.zeros(8, dtype=bool)
    mask[3] = True  # frozen set that skips index 0
    with pytest.raises(ValueError):
        CodeSpec(frozen_mask=mask)
    with pytest.raises(ValueError):
        CodeSpec(frozen_mask=np.zeros(8, dtype=bool), design_sigma2=-1.0)


def test_construct_frozen_set_validation():
    with pytest.raises(ValueError):
        construct_frozen_set(0, 1, 0.5)
    with pytest.raises(ValueError):
        construct_frozen_set(3, 0, 0.5)
    with pytest.raises(ValueError):
        construct_frozen_set(3, 9, 0.5)
    with pytest.raises(ValueError):
        construct_frozen_set(3, 5, 0.0)


def test_construction_against_monte_carlo_n4():
    """The worst and best synthetic channels are unambiguous at N=4."""
    err = mc_channel_error_rates(2, 0.5, 200_000)
    assert err.argmax() == 0
    assert err.argmin() == 3
    spec = construct_frozen_set(2, 3, 0.5)
    assert list(np.flatnonzero(spec.frozen_natural)) == [0]
    assert list(np.flatnonzero(spec.frozen_mask)) == [0]
    spec = construct_frozen_set(2, 1, 0.5)
    assert list(spec.info_positions) == [3]


def test_construction_against_monte_carlo_n8():
    """Full frozen-set agreement with a genie-SC simulation at N=8."""
    err = mc_channel_error_rates(3, 0.5, 400_000, seed=5)
    worst_first = np.argsort(err)[::-1]
    # the cut between 3rd and 4th worst channel must be clear, or the
    # comparison below would hinge on Monte-Carlo noise
    assert err[worst_first[3]] < 0.8 * err[worst_first[2]]
    spec = construct_frozen_set(3, 5, 0.5)
    assert set(np.flatnonzero(spec.frozen_natural)) == set(worst_first[:3])


def test_construction_nested_in_k():
    for n, sigma2 in ((4, 0.3), (6, 0.8)):
        prev = None
        for k in range(1, (1 << n) + 1):
            info = set(construct_frozen_set(n, k, sigma2).info_positions)
            assert len(info) == k
            if prev is not None:
                assert prev < info
            prev = info


def test_known_small_code():
    # the usual (8,5) layout: stored frozen {0,2,4}, natural frozen {0,1,2}
    spec = construct_frozen_set(3, 5, 0.5)
    assert list(np.flatnonzero(spec.frozen_mask)) == [0, 2, 4]
    assert list(np.flatnonzero(spec.frozen_natural)) == [0, 1, 2]
    assert list(spec.info_positions) == [1, 3, 5, 6, 7]


def test_systematic_placement_small_code():
    spec = construct_frozen_set(3, 5, 0.5)
    a = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    x = encode_systematic(a, spec)
    assert np.array_equal(x[spec.info_positions], a)
    u = encode_polar(x)
    assert not u[spec.frozen_mask].any()
    assert np.array_equal(extract_info(x, spec), a)


def test_systematic_round_trip_random():
    rng = np.random.default_rng(6)
    for n in (2, 3, 5, 7, 10):
        N = 1 << n
        k = int(rng.integers(1, N + 1))
        spec = construct_frozen_set(n, k, 0.5)
        a = rng.integers(0, 2, size=(40, k), dtype=np.uint8)
        x = encode_systematic(a, spec)
        assert x.shape == (40, N)
        assert x.dtype == np.uint8
        assert np.array_equal(extract_info(x, spec), a)
        u = encode_polar(x)
        assert not u[:, spec.frozen_mask].any()


def test_systematic_out_buffer_equals_fresh_result():
    rng = np.random.default_rng(32)
    # a mask that is not downward closed gives no codewords: refused, with
    # or without a buffer
    odd = rng.random(64) < 0.3
    odd[0] = True
    for out in (None, np.zeros((7, 64), np.uint8)):
        with pytest.raises(ValueError, match="downward closed"):
            encode_systematic(np.zeros((7, 64 - odd.sum()), np.uint8), CodeSpec(frozen_mask=odd),
                              out=out)
    specs = [construct_frozen_set(n, k, 0.5) for n, k in ((2, 3), (3, 5), (6, 40), (11, 1723))]
    for spec in specs:
        n, k = spec.n_bits, spec.k
        for lead in ((), (7,), (2, 3)):
            a = rng.integers(0, 2, size=lead + (k,), dtype=np.uint8)
            want = encode_systematic(a, spec)
            buf = np.full(lead + (1 << n,), 0xFF, dtype=np.uint8)  # stale contents
            got = encode_systematic(a, spec, out=buf)
            assert got is buf
            assert np.array_equal(got, want)
            # a partial-batch view of a larger workspace
            if lead == (7,):
                work = np.full((9, 1 << n), 0xFF, dtype=np.uint8)
                assert np.array_equal(encode_systematic(a, spec, out=work[:7]), want)
                assert (work[7:] == 0xFF).all()


def test_systematic_out_allocates_little():
    # the butterfly's in-word stages shift and mask through a bounded chunk,
    # not a temporary as large as the output
    spec = construct_frozen_set(15, 29492, 0.5)
    a = np.random.default_rng(33).integers(0, 2, size=(128, spec.k), dtype=np.uint8)
    out = np.empty((128, spec.N), np.uint8)
    encode_systematic(a, spec, out=out)  # caches the spec's gather index and keep mask
    tracemalloc.start()
    try:
        encode_systematic(a, spec, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes / 4, peak
    for i in (0, 37, 127):  # many chunks per batch, one chunk per frame
        assert np.array_equal(out[i], encode_systematic(a[i], spec))


def test_systematic_out_validation():
    spec = construct_frozen_set(4, 10, 0.5)
    a = np.zeros((3, 10), dtype=np.uint8)
    for bad in (np.zeros((3, 8), np.uint8), np.zeros((3, 16), np.int64),
                np.zeros((16, 3), np.uint8).T):
        with pytest.raises(ValueError):
            encode_systematic(a, spec, out=bad)


def test_systematic_shape_validation():
    spec = construct_frozen_set(3, 5, 0.5)
    with pytest.raises(ValueError):
        encode_systematic(np.zeros(4, dtype=np.uint8), spec)
    with pytest.raises(ValueError):
        extract_info(np.zeros(4, dtype=np.uint8), spec)


def test_spec_text_round_trip():
    spec = construct_frozen_set(3, 5, 0.5)
    text = spec_to_text(spec)
    assert "N=8" in text and "k=5" in text
    assert "a8" in text.lower()
    back = spec_from_text(text)
    assert np.array_equal(back.frozen_mask, spec.frozen_mask)
    assert back.design_sigma2 == spec.design_sigma2


def test_spec_file_round_trip(tmp_path):
    spec = construct_frozen_set(6, 40, 0.25)
    path = tmp_path / "code.mask"
    save_spec(spec, path)
    back = load_spec(path)
    assert np.array_equal(back.frozen_mask, spec.frozen_mask)
    assert back.k == 40


def test_spec_accepts_index_list_and_comments():
    spec = spec_from_text("# tiny code\nN=8\nk=5\n0, 2, 4\n")
    assert list(np.flatnonzero(spec.frozen_mask)) == [0, 2, 4]
    assert spec.design_sigma2 is None


def test_spec_parse_errors():
    cases = [
        "k=5\na8\n",                      # missing N
        "N=8\nk=5\n",                     # missing mask line
        "N=8\nk=5\nzz\n",                 # bad token
        "N=8\nk=4\na8\n",                 # k disagrees with mask
        "N=8\nk=5\na8\nb8\n",             # two mask lines
        "N=8\nk=5\nwhat=1\na8\n",         # unknown key
        "N=8\nN=8\nk=5\na8\n",            # duplicate key
        "N=6\nk=3\n0 1 2\n",              # N not a power of two
        "N=8\nk=5\n4 2 0\n",              # unsorted index list
        "N=8\nk=5\n0 2 9\n",              # index out of range
        "N=2\nk=1\n3\n",                  # mask padding spills past N
    ]
    for text in cases:
        with pytest.raises(MaskFileError):
            spec_from_text(text)


def test_spec_parse_error_names_line():
    with pytest.raises(MaskFileError, match="line 3"):
        spec_from_text("N=8\nk=5\nzz\n")
