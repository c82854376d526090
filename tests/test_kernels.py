import numpy as np
import pytest

from fastssc.kernels import (
    ML4_CODEWORDS,
    combine_op,
    decode_ml4,
    decode_rep,
    decode_rep_spc,
    decode_spc,
    f_op,
    g_op,
    hd_op,
)
from fastssc.polar import encode_polar


def even_weight_words(m):
    """All length-m binary words with even parity, as a (2^(m-1), m) array."""
    ints = np.arange(1 << m, dtype=np.uint32)
    bits = (ints[:, None] >> np.arange(m)[::-1]) & 1
    return bits[bits.sum(axis=1) % 2 == 0].astype(np.uint8)


def correlation_ml(alpha, codebook):
    """Brute-force max of sum((1-2c)*alpha) over codebook rows, first max wins."""
    alpha = np.atleast_2d(alpha)
    signs = (1.0 - 2.0 * codebook.astype(np.float64)).T
    picks = np.empty(len(alpha), dtype=np.intp)
    for lo in range(0, len(alpha), 256):  # keep the correlation matrix small
        chunk = alpha[lo : lo + 256]
        picks[lo : lo + len(chunk)] = np.argmax(chunk @ signs, axis=1)
    return codebook[picks]


def test_f_op_values():
    assert f_op(np.array([2.0]), np.array([-3.0])) == [-2.0]
    assert f_op(np.array([-4.0]), np.array([-5.0])) == [4.0]
    assert f_op(np.array([7.0]), np.array([0.0])) == [0.0]
    out = f_op(np.array([2.0, -4.0, 7.0]), np.array([-3.0, -5.0, 0.0]))
    assert np.array_equal(out, [-2.0, 4.0, 0.0])


def test_f_op_never_grows_magnitude():
    rng = np.random.default_rng(0)
    a = rng.normal(size=1000)
    b = rng.normal(size=1000)
    out = f_op(a, b)
    assert (np.abs(out) <= np.minimum(np.abs(a), np.abs(b)) + 1e-12).all()


def test_f_op_length_mismatch():
    with pytest.raises(ValueError):
        f_op(np.zeros(3), np.zeros(4))


def test_g_op_values():
    assert g_op(np.array([2.0]), np.array([3.0]), np.array([0])) == [5.0]
    assert g_op(np.array([2.0]), np.array([3.0]), np.array([1])) == [1.0]
    out = g_op(np.array([2.0, 2.0]), np.array([3.0, 3.0]), np.array([0, 1]))
    assert np.array_equal(out, [5.0, 1.0])


def test_g_op_saturates_in_fixed_domain():
    a = np.array([31], dtype=np.int32)
    b = np.array([31], dtype=np.int32)
    assert g_op(a, b, np.array([0]), sat=31) == [31]
    assert g_op(a, -b, np.array([1]), sat=31) == [-31]
    assert g_op(a.astype(np.int8), b.astype(np.int8), np.array([0]), sat=31).dtype == np.int8
    # saturation is a fixed-point operation: float operands are refused
    for fa, fb in ((a.astype(float), b.astype(float)), (a, b.astype(float))):
        with pytest.raises(ValueError, match="integer"):
            g_op(fa, fb, np.array([0]), sat=31)
    with pytest.raises(ValueError):
        g_op(a, b, np.array([0, 1]))


def test_combine_op_values():
    assert np.array_equal(combine_op(np.array([0]), np.array([1])), [1, 1])
    assert np.array_equal(combine_op(np.array([1]), np.array([0])), [1, 0])
    assert np.array_equal(
        combine_op(np.array([1, 0]), np.array([1, 1])), [0, 1, 1, 1]
    )
    with pytest.raises(ValueError):
        combine_op(np.array([1]), np.array([1, 0]))


def test_hd_op_values():
    assert np.array_equal(hd_op(np.array([0.0])), [0])
    assert np.array_equal(hd_op(np.array([-1.0, 2.0])), [1, 0])
    assert np.array_equal(hd_op(np.array([-0.0])), [0])
    assert np.array_equal(hd_op(np.array([-3, 0, 5], dtype=np.int32)), [1, 0, 0])


def test_decode_spc_values():
    assert np.array_equal(decode_spc(np.array([1.0, -2.0, 3.0, -4.0])), [0, 1, 0, 1])
    assert np.array_equal(decode_spc(np.array([1.0, -2.0, 3.0, 4.0])), [1, 1, 0, 0])
    assert np.array_equal(decode_spc(np.array([9.0, 8.0, 7.0, 6.0])), [0, 0, 0, 0])


def test_decode_spc_tie_flips_lowest_index():
    out = decode_spc(np.array([-1.0, 1.0, 1.0, 1.0]))
    assert np.array_equal(out, [0, 0, 0, 0])
    out = decode_spc(np.array([1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]))
    assert np.array_equal(out, [1, 1, 0, 0, 0, 0, 0, 0])


def test_decode_spc_output_parity_always_even():
    rng = np.random.default_rng(1)
    for m in (2, 4, 8, 16, 32):
        alpha = rng.normal(size=(200, m))
        out = np.array([decode_spc(row) for row in alpha])
        assert not (out.sum(axis=1) % 2).any()


def test_decode_spc_matches_correlation_ml():
    """Wagner decoding is ML over the even-weight codebook (tie-free inputs)."""
    rng = np.random.default_rng(2)
    for m in (4, 8, 16):
        book = even_weight_words(m)
        alpha = rng.normal(size=(2000, m))
        want = correlation_ml(alpha, book)
        got = np.array([decode_spc(row) for row in alpha])
        assert np.array_equal(got, want)


def test_decode_rep_values():
    assert np.array_equal(decode_rep(np.array([1.0, 1.0, 1.0, 1.0])), [0, 0, 0, 0])
    assert np.array_equal(decode_rep(np.array([1.0, 2.0, -4.0, 0.5])), [1, 1, 1, 1])
    assert np.array_equal(decode_rep(np.array([2.0, -2.0])), [0, 0])
    # SC's order adds halves, so a length must be a power of two
    for n, text in ((1, "at least 2"), (6, "cannot halve length 3")):
        with pytest.raises(ValueError, match=text):
            decode_rep(np.ones(n))


def test_decode_rep_matches_two_word_ml():
    rng = np.random.default_rng(3)
    book = np.array([[0] * 8, [1] * 8], dtype=np.uint8)
    alpha = rng.normal(size=(3000, 8))
    want = correlation_ml(alpha, book)
    got = np.array([decode_rep(row) for row in alpha])
    assert np.array_equal(got, want)


def test_decode_rep_wide_accumulation():
    # int sums beyond any single-value width must not wrap
    big = np.full(16, 2**30, dtype=np.int32)
    assert np.array_equal(decode_rep(big), np.zeros(16, dtype=np.uint8))
    assert np.array_equal(decode_rep(-big), np.ones(16, dtype=np.uint8))


def test_decode_rep_decides_alike_in_any_layout():
    """SC's halving order sums this row to -1, as its first halving cancels
    1e300 with -1e300 before the -1 is added, but numpy sums a column-ordered
    batch one column at a time, to 0; the decision is SC's in every layout."""
    row = np.array([1e300, -1.0] + [0.0] * 6 + [-1e300] + [0.0] * 7)
    batch = np.tile(row, (5, 1))
    assert np.asfortranarray(batch).sum(axis=1)[0] == 0.0  # an order REP does not use
    gathered = batch[:, np.arange(16)]  # a fancy index returns column order
    for alpha in (row, batch, np.asfortranarray(batch), gathered):
        assert (decode_rep(alpha) == 1).all(), alpha.strides


def test_decode_rep_spc_strong_positive():
    assert np.array_equal(decode_rep_spc(np.full(8, 8.0)), np.zeros(8, dtype=np.uint8))


def test_decode_rep_spc_hand_trace():
    alpha = np.array([1.0, 1.0, 1.0, 1.0, -3.0, -3.0, -3.0, -3.0])
    out = decode_rep_spc(alpha)
    assert np.array_equal(out, [0, 0, 0, 0, 1, 1, 1, 1])


def rep_spc_codebook():
    """The 16 words whose first half is r^s and second half s, s even, r const."""
    words = []
    for r in (np.zeros(4, np.uint8), np.ones(4, np.uint8)):
        for s in even_weight_words(4):
            words.append(combine_op(r, s))
    return np.array(words, dtype=np.uint8)


def test_decode_rep_spc_output_is_valid_codeword():
    rng = np.random.default_rng(4)
    book = {bytes(w) for w in rep_spc_codebook()}
    for _ in range(500):
        out = decode_rep_spc(rng.normal(size=8))
        assert bytes(np.asarray(out, dtype=np.uint8)) in book


def test_decode_rep_spc_near_ml():
    """The two-branch procedure tracks brute-force ML.

    On pure noise (worst case, decisions near ties) agreement is around 0.9;
    with any real signal present it is essentially exact.
    """
    rng = np.random.default_rng(5)
    book = rep_spc_codebook()
    alpha = rng.normal(size=(4000, 8))
    want = correlation_ml(alpha, book)
    got = np.array([decode_rep_spc(row) for row in alpha])
    assert (got == want).all(axis=1).mean() > 0.88

    x = book[rng.integers(0, 16, size=4000)]
    alpha = 3.0 * (1.0 - 2.0 * x) + rng.normal(size=(4000, 8))
    want = correlation_ml(alpha, book)
    got = np.array([decode_rep_spc(row) for row in alpha])
    assert (got == want).all(axis=1).mean() > 0.999


def test_decode_rep_spc_length_check():
    with pytest.raises(ValueError):
        decode_rep_spc(np.zeros(4))


def test_ml4_codebook_is_the_frozen_02_code():
    # each candidate must transform back to a source word with u0 = u2 = 0
    u = encode_polar(ML4_CODEWORDS)
    assert not u[:, 0].any()
    assert not u[:, 2].any()
    assert len({bytes(r) for r in ML4_CODEWORDS}) == 4


def test_decode_ml4_values():
    assert np.array_equal(decode_ml4(np.array([1.0, -1.0, 2.0, -2.0])), [0, 0, 0, 0])
    assert np.array_equal(decode_ml4(np.array([3.0, 1.0, 2.0, 5.0])), [0, 0, 0, 0])
    assert np.array_equal(decode_ml4(np.array([0.0, 0.0, 0.0, -5.0])), [1, 1, 1, 1])


def test_decode_ml4_matches_brute_force():
    rng = np.random.default_rng(6)
    alpha = rng.normal(size=(5000, 4))
    want = correlation_ml(alpha, ML4_CODEWORDS)
    got = np.array([decode_ml4(row) for row in alpha])
    assert np.array_equal(got, want)


def test_decode_ml4_length_check():
    with pytest.raises(ValueError):
        decode_ml4(np.zeros(5))


def test_kernels_agree_across_domains():
    """Integer inputs produce the same decisions as the float path."""
    rng = np.random.default_rng(7)
    ai = rng.integers(-15, 16, size=(300, 8)).astype(np.int32)
    af = ai.astype(np.float64)
    for i in range(len(ai)):
        assert np.array_equal(decode_spc(ai[i]), decode_spc(af[i]))
        assert np.array_equal(decode_rep(ai[i]), decode_rep(af[i]))
        assert np.array_equal(decode_rep_spc(ai[i]), decode_rep_spc(af[i]))
        assert np.array_equal(decode_ml4(ai[i, :4]), decode_ml4(af[i, :4]))
    bi = rng.integers(-15, 16, size=(300, 4)).astype(np.int32)
    assert np.array_equal(f_op(ai[:, :4], bi), f_op(af[:, :4], bi.astype(float)))
    beta = rng.integers(0, 2, size=(300, 4)).astype(np.uint8)
    assert np.array_equal(
        g_op(ai[:, :4], bi, beta).astype(float),
        g_op(af[:, :4], bi.astype(float), beta),
    )
