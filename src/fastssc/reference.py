"""Reference successive-cancellation decoder.

A textbook recursive min-sum SC decoder over the full (unpruned) tree,
used as the bit-exactness oracle for the compiled engine.  It favors
clarity over speed, but batches over frames so large oracle comparisons
stay cheap.
"""

import numpy as np

from .kernels import combine_op, f_op, g_op, hd_op
from .polar import bit_reverse_permutation
from .quantize import check_channel_llrs


def sc_decode(channel_llrs, spec, quant=None):
    """Decode channel LLRs to the systematic codeword estimate.

    Parameters
    ----------
    channel_llrs : array_like, shape (..., N)
        Transmission-order soft values: finite floats, or integers in the
        channel range when quant is given.
    spec : CodeSpec
    quant : QuantScheme, optional
        Enables saturating fixed-point arithmetic in the g update.

    Returns
    -------
    ndarray of uint8, shape (..., N)
        The re-encoded decision vector (root beta), a valid codeword.
    """
    alpha = np.asarray(channel_llrs)
    if alpha.ndim == 0 or alpha.shape[-1] != spec.N:
        raise ValueError(f"expected channel vectors of length {spec.N}")
    check_channel_llrs(alpha, quant)
    squeeze = alpha.ndim == 1
    if squeeze:
        alpha = alpha[None, :]
    alpha = alpha.reshape(-1, spec.N)
    sat = quant.internal_limit if quant is not None else None
    # transmission order is bit-reversed; the tree recursion runs in natural
    # order, so permute at both boundaries (the permutation is an involution)
    rev = bit_reverse_permutation(spec.n_bits)
    out = _sc_node(alpha[:, rev], 0, spec.frozen_natural, sat)[:, rev]
    return out[0] if squeeze else out.reshape(np.asarray(channel_llrs).shape)


def _sc_node(alpha, base, frozen, sat):
    n = alpha.shape[-1]
    if n == 1:
        if frozen[base]:
            return np.zeros(alpha.shape, dtype=np.uint8)
        return hd_op(alpha)
    half = n // 2
    a, b = alpha[..., :half], alpha[..., half:]
    beta_l = _sc_node(f_op(a, b), base, frozen, sat)
    beta_r = _sc_node(g_op(a, b, beta_l, sat), base + half, frozen, sat)
    return combine_op(beta_l, beta_r)
