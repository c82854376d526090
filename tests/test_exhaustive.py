"""Every systematic-encodable code of length N <= 16 against the SC oracle.

Systematic encoding needs a frozen set that is downward closed under the
binary-submask order (every submask of a frozen index is frozen).  For
N = 2, 4, 8, 16 there are 3, 6, 20 and 168 such sets (the Dedekind numbers);
all but the all-frozen one carry information.
"""

from unittest import mock

import numpy as np

from fastssc import _clib
from fastssc.compiler import NodeRuleSet, build_tree, compile_tree
from fastssc.engine import execute
from fastssc.polar import CodeSpec, encode_polar, encode_systematic
from fastssc.quantize import QuantScheme, quantize_channel
from fastssc.reference import sc_decode


def downward_closed_masks(n):
    """All frozen masks of length 2^n closed under taking binary submasks."""
    N = 1 << n
    masks = ((np.arange(1 << N)[:, None] >> np.arange(N)) & 1).astype(bool)
    idx = np.arange(N)
    ok = np.ones(len(masks), dtype=bool)
    for b in range(n):
        upper = idx[idx & (1 << b) != 0]
        ok &= ~(masks[:, upper] & ~masks[:, upper ^ (1 << b)]).any(axis=1)
    return masks[ok]


def test_every_downward_closed_code_up_to_16():
    q = QuantScheme(7, 5, 1)
    rng = np.random.default_rng(40)
    for n, count in ((1, 3), (2, 6), (3, 20), (4, 168)):
        masks = downward_closed_masks(n)
        assert len(masks) == count
        for mask in masks[masks.sum(axis=1) < (1 << n)]:  # k > 0
            spec = CodeSpec(frozen_mask=mask)
            a = rng.integers(0, 2, size=(16, spec.k), dtype=np.uint8)
            x = encode_systematic(a, spec)
            clean = 4.0 * (1.0 - 2.0 * x)
            noisy = clean + rng.normal(0.0, 2.0, size=x.shape)
            # exact zeros are ties that rate-1 nodes settle unlike SC, so
            # frames with +-0.0 are held to the zero-sign rule (-0.0 decides
            # like +0.0) and to giving codewords, not to the oracle
            zeros = rng.random(x.shape) < 0.15
            signed = noisy.copy()
            signed[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
            unsigned = np.where(zeros, 0.0, signed)
            oracle = sc_decode(noisy, spec)
            for ml4 in (False, True):
                # compiling raises CompileError if the set has no instruction form
                prog = compile_tree(build_tree(spec, 64, NodeRuleSet(ml4=ml4)))
                got = execute(prog, noisy)
                if not ml4:  # ML4 decodes its nodes by ML, not SC
                    assert np.array_equal(got, oracle), mask
                tied = execute(prog, signed)
                assert np.array_equal(tied, execute(prog, unsigned)), mask
                for out in (got, tied):
                    assert not encode_polar(out)[:, spec.frozen_mask].any(), mask
                assert np.array_equal(execute(prog, clean), x), mask
                # fixed point on the compiled interpreter and on the numpy path
                clean_q = quantize_channel(clean, q)
                assert np.array_equal(execute(prog, clean_q, quant=q), x), mask
                with mock.patch.object(_clib, "library", lambda: None):
                    assert np.array_equal(execute(prog, clean_q, quant=q), x), mask


def test_systematic_encoding_needs_a_downward_closed_mask():
    closed = {m.tobytes() for m in downward_closed_masks(3)}
    for bits in range(1 << 8):
        mask = ((bits >> np.arange(8)) & 1).astype(bool)
        if not mask[0] and mask.any():
            continue  # CodeSpec requires index 0 frozen
        spec = CodeSpec(frozen_mask=mask)
        a = np.ones((2, spec.k), dtype=np.uint8)
        if mask.tobytes() in closed:
            x = encode_systematic(a, spec)
            assert not encode_polar(x)[:, mask].any()
            assert (x[:, spec.info_positions] == 1).all()
        else:
            try:
                encode_systematic(a, spec)
            except ValueError:
                continue
            raise AssertionError(f"encoded with mask {mask.astype(int)}")
