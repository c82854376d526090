"""Constituent-code decoding primitives.

All kernels operate elementwise on the trailing axis and broadcast over any
leading axes, so a whole batch of frames is one call.  They are generic over
the value domain: float arrays pass through plain arithmetic, integer arrays
get saturating adds when a limit is supplied.  Hard decisions use the
convention bit = 0 iff the value is >= 0; floating -0.0 counts as >= 0.
"""

import numpy as np

# Codewords of the one-frozen-pair length-4 constituent code, in candidate
# order used for tie breaking.
ML4_CODEWORDS = np.array(
    [[0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0]], dtype=np.uint8
)


def _halves(v):
    n = v.shape[-1]
    if n < 2 or n & 1:
        raise ValueError(f"cannot halve length {n}")
    return v[..., : n // 2], v[..., n // 2 :]


def f_op(a, b):
    """Min-sum check update: sign(a)sign(b)min(|a|,|b|), sign(0) = +."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("operand shapes differ")
    m = np.minimum(np.abs(a), np.abs(b))
    neg = (a < 0) ^ (b < 0)
    return np.where(neg, -m, m)


def g_op(a, b, beta_l, sat=None):
    """Path update: b + a where beta_l = 0, b - a where beta_l = 1.

    With sat given, the operands must be integers; the sum is formed in
    int64 and clamped to [-sat, sat].
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("operand shapes differ")
    bits = np.asarray(beta_l)
    if bits.ndim and bits.shape != a.shape:
        raise ValueError("beta shape differs from operands")
    if sat is not None and not (np.issubdtype(a.dtype, np.integer)
                                and np.issubdtype(b.dtype, np.integer)):
        raise ValueError("saturating g_op needs integer operands")
    signed = np.where(bits != 0, -a, a)
    if sat is None:
        return b + signed
    s = np.add(b, signed, dtype=np.int64)
    return np.clip(s, -sat, sat).astype(a.dtype)


def combine_op(beta_l, beta_r):
    """Stack child codewords: first half beta_l XOR beta_r, second beta_r."""
    beta_l = np.asarray(beta_l, dtype=np.uint8)
    beta_r = np.asarray(beta_r, dtype=np.uint8)
    if beta_l.shape != beta_r.shape:
        raise ValueError("operand shapes differ")
    return np.concatenate((beta_l ^ beta_r, beta_r), axis=-1)


def hd_op(alpha):
    """Threshold detection: 0 iff alpha >= 0."""
    return (np.asarray(alpha) < 0).astype(np.uint8)


def decode_spc(alpha):
    """Wagner decoding of a single parity check code.

    Hard-decide every value, then flip the least reliable position (lowest
    index on magnitude ties) if the decisions have odd parity.  The output
    always satisfies the parity check.
    """
    alpha = np.asarray(alpha)
    n = alpha.shape[-1]
    if n < 2:
        raise ValueError("SPC needs at least 2 values")
    bits = hd_op(alpha).reshape(-1, n)
    mag = np.abs(alpha).reshape(-1, n)
    parity = np.bitwise_xor.reduce(bits, axis=-1)
    j = np.argmin(mag, axis=-1)
    bits[np.arange(bits.shape[0]), j] ^= parity
    return bits.reshape(alpha.shape)


def decode_rep(alpha):
    """Repetition decoding: replicate the sign of the sum (>= 0 gives 0).

    Integer input is accumulated in int64 with no saturation.  Float input
    is summed in numpy's pairwise order over C-ordered rows, whatever the
    layout it comes in, so a frame's decision does not depend on it.
    """
    alpha = np.asarray(alpha)
    n = alpha.shape[-1]
    if n < 2:
        raise ValueError("repetition needs at least 2 values")
    acc = np.int64 if np.issubdtype(alpha.dtype, np.integer) else np.float64
    s = np.asarray(np.ascontiguousarray(alpha).sum(axis=-1, dtype=acc))
    bit = (s < 0).astype(np.uint8)
    return np.broadcast_to(bit[..., None], alpha.shape[:-1] + (n,)).copy()


def decode_rep_spc(alpha, sat=None):
    """Two-branch decoding of the length-8 repetition/parity node.

    The repetition half is decoded from the checked combination of the two
    halves; both parity branches are decoded speculatively with the left
    codeword assumed all-zero and all-one, and the repetition decision picks
    the branch.
    """
    alpha = np.asarray(alpha)
    if alpha.shape[-1] != 8:
        raise ValueError(f"expected length 8, got {alpha.shape[-1]}")
    a, b = _halves(alpha)
    rep_in = f_op(a, b)
    acc = np.int64 if np.issubdtype(alpha.dtype, np.integer) else np.float64
    d = (np.asarray(rep_in.sum(axis=-1, dtype=acc)) < 0).astype(np.uint8)
    beta0 = decode_spc(g_op(a, b, 0, sat))
    beta1 = decode_spc(g_op(a, b, 1, sat))
    beta_spc = np.where(d[..., None] != 0, beta1, beta0).astype(np.uint8)
    beta_rep = np.broadcast_to(d[..., None], beta_spc.shape)
    return combine_op(beta_rep, beta_spc)


def decode_ml4(alpha):
    """Exhaustive correlation decoding over the four length-4 candidates.

    Returns the codeword maximizing sum((1-2c)*alpha); ties pick the
    earliest candidate in ML4_CODEWORDS order.  With s = a0 + a1 and
    t = a2 + a3, summed in int64 or float64, the four scores are s + t,
    -(s + t), s - t and t - s, so a frame's decision does not depend on
    the others in its batch.
    """
    alpha = np.asarray(alpha)
    if alpha.shape[-1] != 4:
        raise ValueError(f"expected length 4, got {alpha.shape[-1]}")
    acc = np.int64 if np.issubdtype(alpha.dtype, np.integer) else np.float64
    s = np.add(alpha[..., 0], alpha[..., 1], dtype=acc)
    t = np.add(alpha[..., 2], alpha[..., 3], dtype=acc)
    scores = np.stack([s + t, -(s + t), s - t, t - s], axis=-1)
    return ML4_CODEWORDS[np.argmax(scores, axis=-1)]
