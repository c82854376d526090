import zlib
from functools import partial, reduce

import numpy as np
import pytest

from fastssc import polar
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
from fastssc.simulate import ebno_to_sigma2

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
    for sigma2 in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            CodeSpec(frozen_mask=np.zeros(8, dtype=bool), design_sigma2=sigma2)


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


def reference_phi_log_inv(lv, iterations):
    """The Newton loop of _phi_log_inv over every value until the last step,
    without parking fixed points; appends its iteration count to iterations."""
    lv = np.asarray(lv, dtype=np.float64)
    out = np.empty_like(lv)
    easy = lv >= polar._GA_LV_SPLIT
    out[easy] = ((polar._GA_C - lv[easy]) / -polar._GA_A) ** (1.0 / polar._GA_B)
    hard = ~easy
    if hard.any():
        t = lv[hard]
        x = -4.0 * t
        for it in range(1, 61):
            g = -x / 4.0 + 0.5 * (polar._LN_PI - np.log(x)) + np.log1p(-10.0 / (7.0 * x)) - t
            gp = -0.25 - 0.5 / x + 10.0 / (x * (7.0 * x - 10.0))
            step = g / gp
            x = np.maximum(x - step, polar._GA_SPLIT)
            if np.max(np.abs(step)) < 1e-12:
                break
        out[hard] = x
        iterations.append(it)
    return out


def test_ga_means_match_the_plain_newton_loop(monkeypatch):
    """Parking fixed points changes no mean by a bit.  This also rests on
    numpy's log and log1p giving a value the same result wherever it sits in
    an array, which the grid checks on this machine."""
    iterations = []
    plain = partial(reference_phi_log_inv, iterations=iterations)
    grid = [(ebno, rate) for ebno in (-5, -2, 0, 1, 2, 3, 4, 5, 6, 8, 10, 15)
            for rate in (0.1, 0.5, 0.9)]
    for n in range(1, 17):
        # the largest levels cost the most; they get a sparser grid
        for ebno, rate in grid if n <= 12 else [(-2, 0.5), (4, 0.9), (10, 0.1)]:
            sigma2 = ebno_to_sigma2(ebno, rate)
            got = polar._ga_means(n, sigma2)
            with monkeypatch.context() as m:
                m.setattr(polar, "_phi_log_inv", plain)
                want = polar._ga_means(n, sigma2)
            assert np.array_equal(got, want), (n, ebno, rate)
    # some level ran into the iteration cap, so the exit test was exercised
    assert max(iterations) == 60


def test_parked_steps_count_in_the_exit_test(monkeypatch):
    """A value held at a fixed point or in a two-cycle with a step of 1e-12
    or more keeps the loop running, so the others go on moving as they would
    without parking, and a two-cycle ends on its value at the last
    iteration's parity.

    With the fit's own constants every fixed point found has a zero step, so
    the clamp is raised: -3.5 has its root below 12 and stays clamped there.
    The second value ends up cycling between two floats, and the last two
    reach fixed points early, so the clamped value is dropped while the
    cycling one still moves.

    With the fit's constants, the first value of each of the last two
    arrays cycles from iteration 4 with steps of ~1.8e-12.  Two-cycles are
    looked for from the iteration after the first drop.  In the first array
    the other two are fixed from iteration 3, so the cycle is dropped at
    iteration 4; in the second they are fixed from iteration 4, and it is
    dropped at iteration 5.  Both loops run to iteration 60.
    """
    with monkeypatch.context() as m:
        m.setattr(polar, "_GA_SPLIT", 12.0)
        lv = np.array([-3.5] + [float.fromhex(h) for h in (
            "-0x1.3b5e235b6fc69p+2", "-0x1.326dbbfd8ab6cp+2", "-0x1.33955812427d8p+3")])
        iterations = []
        want = reference_phi_log_inv(lv, iterations)
        assert iterations == [60]
        assert want[0] == 12.0
        assert np.array_equal(polar._phi_log_inv(lv), want)
    for hexes in (("-0x1.b0894e6195ed3p+11", "-0x1.23a3d09e34cf7p+8", "-0x1.b481a03609851p+7"),
                  ("-0x1.1fe364f73a79ap+11", "-0x1.33955812427d8p+3", "-0x1.cc4142823899dp+2")):
        lv = np.array([float.fromhex(h) for h in hexes])
        iterations = []
        want = reference_phi_log_inv(lv, iterations)
        assert iterations == [60]
        assert np.array_equal(polar._phi_log_inv(lv), want), hexes


@pytest.mark.parametrize("n_bits, k, crc", [(15, 29492, 0x8AD12FD5), (16, 58000, 0x799C934C)])
def test_large_frozen_masks_are_pinned(n_bits, k, crc):
    """Masks at 4 dB design Eb/N0, as recorded before the Newton loop parked
    fixed points and the ranking became one stable sort."""
    spec = construct_frozen_set(n_bits, k, ebno_to_sigma2(4.0, k / (1 << n_bits)))
    assert zlib.crc32(spec.frozen_mask.tobytes()) == crc


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


def test_systematic_refuses_a_mask_that_is_not_downward_closed():
    # such a mask gives no codewords
    odd = np.random.default_rng(32).random(64) < 0.3
    odd[0] = True
    with pytest.raises(ValueError, match="downward closed"):
        encode_systematic(np.zeros((7, 64 - odd.sum()), np.uint8), CodeSpec(frozen_mask=odd))


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
