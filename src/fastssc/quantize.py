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

from . import _clib


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


def check_channel_llrs(llrs, quant):
    """Raise ValueError unless the array llrs of (..., N) channel vectors is a
    decoder's valid input: with a scheme, integers within its channel range;
    without, real floats within float_limit(N), which NaN and +-inf fail, so
    that no float step overflows and the library's F needs no NaN rule (a
    complex dtype fails too: a decode would drop or compute on the imaginary
    part).  With the library, a float `execute` checks the limit in the first
    step that reads the input and calls this only to raise."""
    if quant is not None:
        if llrs.dtype.kind not in "iu":
            raise ValueError("fixed-point decoding expects integer channel LLRs")
        lim = quant.channel_limit
        if llrs.size and (int(llrs.min()) < -lim or int(llrs.max()) > lim):
            raise ValueError(f"channel LLRs exceed the +-{lim} channel range")
    elif llrs.dtype.kind == "c":
        raise ValueError("float decoding expects real channel LLRs, not complex")
    elif llrs.size:
        # min and max carry any NaN or infinity, with no mask of llrs' shape
        lo, hi = llrs.min(), llrs.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("channel LLRs must be finite (found NaN or infinity)")
        n, lim = llrs.shape[-1].bit_length() - 1, float_limit(llrs.shape[-1])
        if lo < -lim or hi > lim:
            raise ValueError(f"channel LLRs exceed the +-2^{1023 - n} (~{lim:.4g}) float "
                             f"limit at N = {1 << n}")


def float_limit(N):
    """The largest |float channel LLR| of a length-N decode, 2^(1023 - log2 N),
    as a float64, so that a float32 compares with it uncast.  A G at most
    doubles a magnitude, once per stage, and a REP or ML4 sum at stage s adds
    2^s values, so within it no float step overflows."""
    return np.float64(2.0 ** (1024 - N.bit_length()))


def quantize_channel(llr, scheme):
    """Map real channel LLRs to saturated fixed-point integers.

    Values are scaled by 2**F, rounded to the nearest integer with ties away
    from zero, and clamped to the symmetric channel range; +-inf saturate.
    Quantization is monotone: x <= y implies quantize(x) <= quantize(y).
    The compiled library (`_clib`) does this in one pass whenever it loads;
    the numpy steps below are its plain reference and the fallback.

    Parameters
    ----------
    llr : array_like or float
        Channel LLR value(s), not NaN.
    scheme : QuantScheme
        Target format.

    Returns
    -------
    ndarray or int
        int32 value(s) in [-channel_limit, +channel_limit].
    """
    x = np.asarray(llr, dtype=np.float64)
    lib = _clib.library()
    if lib is not None:
        q = np.empty(x.shape, np.int32)
        x = np.ascontiguousarray(x)  # 1-d when x is 0-d
        if lib.quantize(x.ctypes.data, q.ctypes.data, q.size, scheme.scale, scheme.channel_limit):
            raise ValueError("channel LLRs must not be NaN")
    else:
        s = x * scheme.scale
        if np.isnan(np.min(s, initial=0.0)):
            raise ValueError("channel LLRs must not be NaN")
        # clip first, then round half away from zero (np.round would round
        # ties to even); the int cast truncates.  Same values as rounding
        # sign(s)*floor(|s| + 0.5) first and clipping after.
        s = np.clip(s, -scheme.channel_limit, scheme.channel_limit)
        q = (s + np.copysign(0.5, s)).astype(np.int32)
    return int(q) if np.ndim(llr) == 0 else q
