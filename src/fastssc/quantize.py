"""Fixed-point LLR value domain with saturating two's-complement arithmetic.

Soft values exist in two interchangeable domains: plain floats, and scaled
integers in a (W, Wc, F) format.  W is the bit width of internal values, Wc
the bit width of channel values, and F the number of fractional bits shared
by both.  Integer LLRs use a symmetric range: a width-w value lies in
[-(2**(w-1) - 1), +(2**(w-1) - 1)].  The most negative two's-complement code
is never produced, so negation and magnitude comparison stay closed.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuantScheme:
    """(W, Wc, F) fixed-point format descriptor."""

    w_internal: int
    w_channel: int
    f_frac: int

    def __post_init__(self):
        if not 2 <= self.w_internal <= 31:
            raise ValueError(f"internal width must be in [2, 31], got {self.w_internal}")
        if not 2 <= self.w_channel <= self.w_internal:
            raise ValueError(
                f"channel width must be in [2, {self.w_internal}], got {self.w_channel}"
            )
        if not 0 <= self.f_frac < self.w_channel:
            raise ValueError(
                f"fractional bits must be in [0, {self.w_channel}), got {self.f_frac}"
            )

    @property
    def internal_limit(self):
        """Largest representable internal magnitude."""
        return (1 << (self.w_internal - 1)) - 1

    @property
    def channel_limit(self):
        """Largest representable channel magnitude."""
        return (1 << (self.w_channel - 1)) - 1

    @property
    def scale(self):
        """Scaling factor 2**F applied to real LLRs before rounding."""
        return float(1 << self.f_frac)

    def __str__(self):
        return f"{self.w_internal}:{self.w_channel}:{self.f_frac}"


def parse_quant(text):
    """Parse a scheme flag of the form ``W:Wc:F``; ``float`` maps to None."""
    text = text.strip().lower()
    if text in ("float", "none", ""):
        return None
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"quantization scheme must be W:Wc:F or 'float', got {text!r}")
    try:
        w, wc, f = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"quantization scheme fields must be integers, got {text!r}")
    return QuantScheme(w, wc, f)


def quantize_channel(llr, scheme, out=None):
    """Map real channel LLRs to saturated fixed-point integers.

    Values are scaled by 2**F, rounded to the nearest integer with ties away
    from zero, and clamped to the symmetric channel range; +-inf saturate.
    Quantization is monotone: x <= y implies quantize(x) <= quantize(y).

    Parameters
    ----------
    llr : array_like or float
        Channel LLR value(s), not NaN.
    scheme : QuantScheme
        Target format.
    out : ndarray of float64, optional
        Scratch of llr's shape for the scaled values; it may be llr itself,
        whose values are then consumed.  By default a fresh array is used.

    Returns
    -------
    ndarray or int
        int32 value(s) in [-channel_limit, +channel_limit].
    """
    x = np.asarray(llr, dtype=np.float64)
    s = np.multiply(x, scheme.scale, out=np.empty(x.shape) if out is None else out)
    if np.isnan(s.min(initial=0.0)):
        raise ValueError("channel LLRs must not be NaN")
    lim = scheme.channel_limit
    # clip first, then round half away from zero (np.round would round ties
    # to even); the int cast truncates.  Same values as rounding
    # sign(s)*floor(|s| + 0.5) first and clipping after.
    np.clip(s, -lim, lim, out=s)
    s += np.copysign(0.5, s)
    q = s.astype(np.int32)
    if np.isscalar(llr) or np.ndim(llr) == 0:
        return int(q)
    return q
