"""Polar code construction and encoding.

Index conventions
-----------------
A code is described by a frozen mask stored in bit-reversed (hardware) index
order; `frozen_natural` gives the same mask permuted to natural order, which
is the order decoder-tree leaves are visited in.  Codewords and channel LLR
vectors are always in transmission order.  `encode_polar` maps natural-order
source vectors to transmission order via the butterfly network and is its own
inverse over GF(2).

Systematic codewords carry the information bits at the unfrozen positions of
the stored mask, ascending, so a decoded codeword estimate yields the source
estimate by plain gathering.  The compiled library (`_clib`), when it loads,
encodes them; the numpy steps here are its plain reference and fallback.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import _clib


class MaskFileError(ValueError):
    """Raised when a code spec file cannot be parsed."""


def bit_reverse(i, n_bits):
    """Reverse the n_bits-bit binary representation of i. Involutive."""
    if n_bits <= 0:
        raise ValueError(f"n_bits must be positive, got {n_bits}")
    if not 0 <= i < (1 << n_bits):
        raise ValueError(f"index {i} out of range for {n_bits} bits")
    r = 0
    for _ in range(n_bits):
        r = (r << 1) | (i & 1)
        i >>= 1
    return r


@lru_cache(maxsize=None)
def bit_reverse_permutation(n_bits):
    """Read-only int64 array p of length 2^n_bits, p[i] = bit_reverse(i, n_bits), built once."""
    if n_bits <= 0:
        raise ValueError(f"n_bits must be positive, got {n_bits}")
    idx = np.arange(1 << n_bits, dtype=np.int64)
    rev = np.zeros_like(idx)
    for b in range(n_bits):
        rev = (rev << 1) | ((idx >> b) & 1)
    rev.setflags(write=False)
    return rev


def encode_polar(u):
    """Butterfly transform of natural-order bits, batched over leading axes.

    Computes the GF(2) product with the n-fold Kronecker power of
    [[1,0],[1,1]] in place-order, O(N log N).  The transform is an
    involution, so it both encodes source vectors and recovers them from
    codewords.

    Parameters
    ----------
    u : array_like of 0/1, shape (..., N)
        N must be a power of two.

    Returns
    -------
    ndarray of uint8, same shape.
    """
    x = np.array(u, dtype=np.uint8, copy=True, order="C")
    if x.ndim == 0:
        raise ValueError("input must be at least one-dimensional")
    n = x.shape[-1]
    if n < 1 or n & (n - 1):
        raise ValueError(f"length {n} is not a power of two")
    return _butterfly(x)


def _butterfly(x):
    """The butterfly transform in place over the last axis of a C-contiguous uint8 array.

    Stage h XORs the upper half of every 2h-wide block into its lower half.
    """
    n = x.shape[-1]
    h = 1
    while h < n:
        v = x.reshape(-1, n // (2 * h), 2, h)
        # narrow halves column by column: an inner loop of 2 or 4 is slow
        for j in range(h) if h < 8 else (slice(None),):
            v[:, :, 0, j] ^= v[:, :, 1, j]
        h *= 2
    return x


@dataclass(frozen=True, eq=False)
class CodeSpec:
    """An (N, k) polar code: stored frozen mask plus construction metadata.

    frozen_mask is boolean, length N, true = frozen, in bit-reversed
    (hardware) index order.  design_sigma2 records the noise variance the
    mask was constructed for, when known.
    """

    frozen_mask: np.ndarray
    design_sigma2: float = None

    def __post_init__(self):
        m = np.array(self.frozen_mask, dtype=bool, copy=True)
        if m.ndim != 1 or m.size < 2 or m.size & (m.size - 1):
            raise ValueError("frozen_mask length must be a power of two >= 2")
        m.setflags(write=False)
        object.__setattr__(self, "frozen_mask", m)
        if self.k < self.N and not m[0]:
            # index 0 is the worst synthetic channel in either ordering
            raise ValueError("a code with frozen bits must freeze index 0")
        if self.design_sigma2 is not None and not 0 < self.design_sigma2 < np.inf:
            raise ValueError(
                f"design_sigma2 must be finite and positive, got {self.design_sigma2}"
            )

    @property
    def N(self):
        return self.frozen_mask.size

    @property
    def n_bits(self):
        return self.N.bit_length() - 1

    @property
    def k(self):
        return int(self.N - np.count_nonzero(self.frozen_mask))

    @cached_property
    def frozen_natural(self):
        """Frozen mask permuted to natural (decoder-tree leaf) order."""
        f = self.frozen_mask[bit_reverse_permutation(self.n_bits)]
        f.setflags(write=False)
        return f

    @cached_property
    def info_positions(self):
        """Unfrozen stored-order indices, ascending; systematic bit slots."""
        p = np.flatnonzero(~self.frozen_mask)
        p.setflags(write=False)
        return p

    @cached_property
    def _keep(self):
        """uint8 mask, 1 at unfrozen and 0 at frozen stored-order positions."""
        m = (~self.frozen_mask).astype(np.uint8)
        m.setflags(write=False)
        return m

    @cached_property
    def _downward_closed(self):
        """Whether every binary submask of a frozen index is frozen too."""
        m = self.frozen_mask
        return not any((h[:, 1] & ~h[:, 0]).any()
                       for h in (m.reshape(-1, 2, 1 << b) for b in range(self.n_bits)))

    def __repr__(self):
        return f"CodeSpec(N={self.N}, k={self.k}, design_sigma2={self.design_sigma2})"


# Density-evolution mean update under the Gaussian approximation.  The check
# node (minus) branch uses the usual two-piece exponential fit of the mean
# attenuation function; both the forward map and its inverse are evaluated in
# the log domain so means up to ~1e6 stay finite.

_GA_A = -0.4527
_GA_B = 0.86
_GA_C = 0.0218
_LN_PI = math.log(math.pi)
_GA_SPLIT = 10.0
_GA_LV_SPLIT = _GA_A * _GA_SPLIT**_GA_B + _GA_C  # log-value at the branch point


def _phi_log(m):
    """log of the mean-attenuation fit, elementwise, m > 0."""
    m = np.asarray(m, dtype=np.float64)
    out = np.empty_like(m)
    lo = m < _GA_SPLIT
    out[lo] = _GA_A * m[lo] ** _GA_B + _GA_C
    hi = ~lo
    mh = m[hi]
    out[hi] = -mh / 4.0 + 0.5 * (_LN_PI - np.log(mh)) + np.log1p(-10.0 / (7.0 * mh))
    return out


def _phi_log_inv(lv):
    """Solve _phi_log(x) = lv for x, elementwise, lv < 0.

    Below the branch point this runs Newton's method on all values at once,
    until every step is under 1e-12 or for 60 iterations.  A value whose
    update leaves x unchanged (also one clamped at _GA_SPLIT) is at a fixed
    point: every later iteration computes the same step for it, as numpy's
    log and log1p give a value the same result wherever it sits.  A value
    whose update returns x to where it was two iterations back is in a
    two-cycle: later iterations alternate its two values and its two steps.
    Once at most half of the values still move, the others are dropped: a
    fixed point is written out, a two-cycle keeps its value at even and at
    odd iterations until the loop ends, and their |step| at each parity
    stays in the exit test, so the loop runs exactly as many iterations as
    over the full array and every result is the same to the bit.  Two-cycles
    are looked for only from the iteration after the first drop, when few
    values are left, so that the full array does not pay for the test.
    """
    lv = np.asarray(lv, dtype=np.float64)
    out = np.empty_like(lv)
    easy = lv >= _GA_LV_SPLIT
    out[easy] = ((_GA_C - lv[easy]) / -_GA_A) ** (1.0 / _GA_B)
    idx = np.flatnonzero(~easy)
    t = lv[idx]
    x = -4.0 * t  # dominant -x/4 term makes this a tight start
    back = x  # x one iteration back
    parked = [0.0, 0.0]  # the largest |step| of the dropped values at even and odd iterations
    cycles = []  # the dropped two-cycles: (positions, x, x one iteration back, iteration)
    dropped = False
    for it in range(1, 61):
        if not x.size:  # the dropped values' steps alone decide the exit
            if parked[it % 2] < 1e-12:
                break
            continue
        g = -x / 4.0 + 0.5 * (_LN_PI - np.log(x)) + np.log1p(-10.0 / (7.0 * x)) - t
        gp = -0.25 - 0.5 / x + 10.0 / (x * (7.0 * x - 10.0))
        step = g / gp
        nx = np.maximum(x - step, _GA_SPLIT)
        mag, moving = np.abs(step), nx != x
        if dropped:  # a two-cycle counts as not moving too
            moving &= nx != back
        back, x = x, nx
        if parked[it % 2] < 1e-12 and mag.max() < 1e-12:  # a NaN step never exits
            break
        if 2 * np.count_nonzero(moving) <= x.size:
            fixed = x == back
            cycling = ~(moving | fixed)
            out[idx[fixed]] = x[fixed]
            parked = [max(p, mag[fixed].max(initial=0.0)) for p in parked]
            dropped = True
            if cycling.any():  # its step at this iteration's parity, and the last one's
                cycles.append((idx[cycling], x[cycling], back[cycling], it))
                parked[it % 2] = max(parked[it % 2], mag[cycling].max())
                parked[1 - it % 2] = max(parked[1 - it % 2], back_mag[cycling].max())
            idx, t, x, back, mag = idx[moving], t[moving], x[moving], back[moving], mag[moving]
        back_mag = mag
    out[idx] = x
    for pos, now, before, at in cycles:  # the value at the last iteration's parity
        out[pos] = now if (it - at) % 2 == 0 else before
    return out


def _ga_minus(m):
    """Mean of the degraded (check) branch given mean m on both inputs."""
    m = np.asarray(m, dtype=np.float64)
    out = np.empty_like(m)
    tiny = m < 0.05
    out[tiny] = 0.5 * m[tiny] ** 2
    big = ~tiny
    if big.any():
        lt = np.minimum(_phi_log(m[big]), -1e-300)
        t = np.exp(lt)
        lv = lt + np.log(2.0 - t)  # value of the two-branch combination
        out[big] = _phi_log_inv(np.minimum(lv, -1e-300))
    return out


def _ga_means(n_bits, sigma2):
    """Natural-order synthetic-channel LLR means for BPSK-AWGN."""
    means = np.array([2.0 / sigma2])
    for _ in range(n_bits):
        nxt = np.empty(means.size * 2)
        nxt[0::2] = _ga_minus(means)
        nxt[1::2] = 2.0 * means
        means = nxt
    return means


def construct_frozen_set(n_bits, k, design_sigma2):
    """Pick the N-k least reliable synthetic channels to freeze.

    Reliability comes from Gaussian-approximation density evolution at the
    given design noise variance.  Ties are broken toward freezing the lower
    bit-reversed index, so the result is deterministic.

    Returns a CodeSpec.
    """
    if n_bits < 1:
        raise ValueError(f"n_bits must be >= 1, got {n_bits}")
    N = 1 << n_bits
    if not 0 < k <= N:
        raise ValueError(f"k must be in (0, {N}], got {k}")
    if not 0 < design_sigma2 < np.inf:
        raise ValueError(f"design_sigma2 must be finite and positive, got {design_sigma2}")
    # rank stored positions: the N-k least means, and on a tie at the cut the
    # lower positions, which is a stable sort's choice without the sort
    means = _ga_means(n_bits, design_sigma2)[bit_reverse_permutation(n_bits)]
    frozen = np.zeros(N, dtype=bool)
    if k < N:
        cut = np.partition(means, N - k - 1)[N - k - 1]
        frozen[means < cut] = True
        frozen[np.flatnonzero(means == cut)[: N - k - np.count_nonzero(frozen)]] = True
    return CodeSpec(frozen_mask=frozen, design_sigma2=design_sigma2)


def encode_systematic(a, spec):
    """Systematically encode information bits, batched over leading axes.

    The bits land at the unfrozen positions of the codeword, ascending, in
    source order.  Double-transform construction: place the bits in a
    codeword-shaped vector with zeros at the frozen positions, transform,
    zero the frozen positions, transform again.  Everything stays in the one
    bit-reversed index space; validity rests on the frozen set being
    downward closed under the binary-submask order, which the reliability
    construction guarantees and which is checked (ValueError otherwise).
    The C library, when it loads, runs the same steps row by row on the
    codeword packed into 64-bit words, one bit per position: it deposits the
    bits at the set bits of the packed keep mask, transforms with in-word
    shift-and-mask stages and cross-word XORs, ANDs with the mask,
    transforms again and expands the words back to bytes, with the same
    result for 0/1 input, or MemoryError where it cannot allocate its workspace.

    Parameters
    ----------
    a : array_like of 0/1, shape (..., k)
    spec : CodeSpec

    Returns
    -------
    ndarray of uint8, shape (..., N), a fresh array.
    """
    a = np.asarray(a, dtype=np.uint8)
    if a.shape[-1] != spec.k:
        raise ValueError(f"expected {spec.k} information bits, got {a.shape[-1]}")
    if not spec._downward_closed:
        raise ValueError("systematic encoding needs a frozen set that is downward "
                         "closed under the binary-submask order")
    out = np.empty(a.shape[:-1] + (spec.N,), dtype=np.uint8)
    lib = _clib.library()
    if lib is not None:
        a = np.ascontiguousarray(a)
        if lib.encode(a.ctypes.data, spec._keep.ctypes.data, spec.N, out.size // spec.N,
                      out.ctypes.data):
            raise MemoryError("the compiled encoder could not allocate its workspace")
        return out
    out.fill(0)
    out[..., spec.info_positions] = a
    _butterfly(out)
    out *= spec._keep
    return _butterfly(out)


def extract_info(x, spec):
    """Gather the information bits of a systematic codeword, source order."""
    x = np.asarray(x)
    if x.shape[-1] != spec.N:
        raise ValueError(f"expected codeword length {spec.N}, got {x.shape[-1]}")
    return x[..., spec.info_positions]


def save_spec(spec, path):
    """Write a CodeSpec as the key=value header plus one hex mask line."""
    with open(path, "w") as fh:
        fh.write(spec_to_text(spec))


def spec_to_text(spec):
    lines = [f"N={spec.N}", f"k={spec.k}"]
    if spec.design_sigma2 is not None:
        lines.append(f"design_sigma2={spec.design_sigma2:.12g}")
    lines.append(_mask_to_hex(spec.frozen_mask))
    return "\n".join(lines) + "\n"


def load_spec(path):
    with open(path) as fh:
        return spec_from_text(fh.read())


def _mask_to_hex(mask):
    # most significant nibble holds the lowest indices; packbits pads the
    # last byte with zeros, and a digit past ceil(N/4) is padding only
    return np.packbits(mask).tobytes().hex()[: (mask.size + 3) // 4]


def spec_from_text(text):
    """Parse the mask file format: N=, k=, optional design_sigma2=, mask line.

    The mask line is either a hex bitmask (most significant nibble = lowest
    indices, exactly ceil(N/4) digits 0-9, a-f or A-F, with no sign, 0x
    prefix or underscore) or a sorted decimal index list separated by spaces
    or commas.  A bare token of exactly ceil(N/4) hex digits is always read
    as hex; any other token is read as a decimal index.
    """
    header = {}
    mask_line = None
    mask_lineno = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            if mask_line is not None:
                raise MaskFileError(f"line {lineno}: header after mask line")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in ("N", "k", "design_sigma2"):
                raise MaskFileError(f"line {lineno}: unknown key {key!r}")
            if key in header:
                raise MaskFileError(f"line {lineno}: duplicate key {key!r}")
            header[key] = val.strip()
        else:
            if mask_line is not None:
                raise MaskFileError(f"line {lineno}: more than one mask line")
            mask_line = line
            mask_lineno = lineno
    for key in ("N", "k"):
        if key not in header:
            raise MaskFileError(f"missing header key {key!r}")
    if mask_line is None:
        raise MaskFileError("missing mask line")
    try:
        N = int(header["N"])
        k = int(header["k"])
    except ValueError:
        raise MaskFileError("N and k must be integers")
    if N < 2 or N & (N - 1):
        raise MaskFileError(f"N={N} is not a power of two >= 2")
    sigma2 = None
    if "design_sigma2" in header:
        try:
            sigma2 = float(header["design_sigma2"])
        except ValueError:
            raise MaskFileError("design_sigma2 must be a number")
    mask = _parse_mask_line(mask_line, N, mask_lineno)
    spec = CodeSpec(frozen_mask=mask, design_sigma2=sigma2)
    if spec.k != k:
        raise MaskFileError(f"header says k={k} but mask freezes {N - spec.k} of {N} bits")
    return spec


def _parse_mask_line(line, N, lineno):
    width = (N + 3) // 4
    token = line.replace(",", " ").split()
    if len(token) == 1 and len(token[0]) == width:
        try:  # hex digits only: a sign, 0x or _ makes a decimal token
            raw = bytes.fromhex(token[0] + "0" * (width % 2))
        except ValueError:
            pass
        else:
            bits = np.unpackbits(np.frombuffer(raw, np.uint8))
            if bits[N:].any():
                raise MaskFileError(f"line {lineno}: padding bits must be zero")
            return bits[:N].astype(bool)
    mask = np.zeros(N, dtype=bool)
    prev = -1
    for t in token:
        try:
            j = int(t, 10)
        except ValueError:
            raise MaskFileError(f"line {lineno}: bad mask token {t!r}")
        if j <= prev:
            raise MaskFileError(f"line {lineno}: indices must be sorted and unique")
        if j >= N:
            raise MaskFileError(f"line {lineno}: index {j} out of range for N={N}")
        mask[j] = True
        prev = j
    return mask
