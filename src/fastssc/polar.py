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
estimate by plain gathering.
"""

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


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
    """Length-2^n_bits index array p with p[i] = bit_reverse(i, n_bits)."""
    if n_bits <= 0:
        raise ValueError(f"n_bits must be positive, got {n_bits}")
    idx = np.arange(1 << n_bits)
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


# Stage h < 8 of the butterfly within one little-endian uint64 word: byte i
# of each 2h-byte block takes byte i + h, which the shift brings down.
_IN_WORD = tuple(
    (np.uint64(8 * h), np.uint64(low))
    for h, low in ((1, 0x00FF00FF00FF00FF), (2, 0x0000FFFF0000FFFF), (4, 0x00000000FFFFFFFF))
)

# The in-word stages run over chunks of this many words (256 KB), so their
# shifted and masked temporary stays small and in cache.
_CHUNK_WORDS = 1 << 15


def _butterfly(x):
    """The butterfly transform in place over the last axis of a C-contiguous uint8 array.

    Rows of N >= 8 bytes run as uint64 words on little-endian hosts: the three
    in-word stages shift and mask, chunk by chunk, the others XOR whole words.
    XOR carries nothing between bytes, so the result is the byte-wise
    transform exactly.
    """
    n = x.shape[-1]
    rows = x.reshape(-1, n)
    if n >= 8 and sys.byteorder == "little":
        rows = rows.view(np.uint64)
        words = rows.reshape(-1)
        tmp = np.empty(min(words.size, _CHUNK_WORDS), np.uint64)
        for i in range(0, words.size, _CHUNK_WORDS):
            w = words[i : i + _CHUNK_WORDS]
            t = tmp[: w.size]
            for shift, low in _IN_WORD:
                w ^= np.bitwise_and(np.right_shift(w, shift, out=t), low, out=t)
        n //= 8
    h = 1
    while h < n:
        v = rows.reshape(-1, n // (2 * h), 2, h)
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
        if self.design_sigma2 is not None and not self.design_sigma2 > 0:
            raise ValueError(f"design_sigma2 must be positive, got {self.design_sigma2}")

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
    def _gather(self):
        """Source index of every stored-order position; frozen ones read bit 0."""
        g = np.zeros(self.N, dtype=np.intp)
        g[self.info_positions] = np.arange(self.k)
        g.setflags(write=False)
        return g

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
    """Solve _phi_log(x) = lv for x, elementwise, lv < 0."""
    lv = np.asarray(lv, dtype=np.float64)
    out = np.empty_like(lv)
    easy = lv >= _GA_LV_SPLIT
    out[easy] = ((_GA_C - lv[easy]) / -_GA_A) ** (1.0 / _GA_B)
    hard = ~easy
    if hard.any():
        t = lv[hard]
        x = -4.0 * t  # dominant -x/4 term makes this a tight start
        for _ in range(60):
            g = -x / 4.0 + 0.5 * (_LN_PI - np.log(x)) + np.log1p(-10.0 / (7.0 * x)) - t
            gp = -0.25 - 0.5 / x + 10.0 / (x * (7.0 * x - 10.0))
            step = g / gp
            x = np.maximum(x - step, _GA_SPLIT)
            if np.max(np.abs(step)) < 1e-12:
                break
        out[hard] = x
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
    if not design_sigma2 > 0:
        raise ValueError(f"design_sigma2 must be positive, got {design_sigma2}")
    means = _ga_means(n_bits, design_sigma2)
    rev = bit_reverse_permutation(n_bits)
    order = np.lexsort((rev, means))
    frozen_natural = np.zeros(N, dtype=bool)
    frozen_natural[order[: N - k]] = True
    return CodeSpec(frozen_mask=frozen_natural[rev], design_sigma2=design_sigma2)


def encode_systematic(a, spec, out=None):
    """Systematically encode information bits, batched over leading axes.

    The bits land at the unfrozen positions of the codeword, ascending, in
    source order.  Double-transform construction: gather the bits into a
    codeword-shaped vector with zeros at the frozen positions, transform,
    zero the frozen positions, transform again.  Everything stays in the one
    bit-reversed index space; validity rests on the frozen set being
    downward closed under the binary-submask order, which the reliability
    construction guarantees and which is checked (ValueError otherwise).

    Parameters
    ----------
    a : array_like of 0/1, shape (..., k)
    spec : CodeSpec
    out : ndarray of uint8, shape (..., N), C-contiguous, optional
        Receives the codewords; its previous contents are ignored.  By
        default a fresh array is returned.

    Returns
    -------
    ndarray of uint8, shape (..., N); `out` when given.
    """
    a = np.asarray(a, dtype=np.uint8)
    if a.shape[-1] != spec.k:
        raise ValueError(f"expected {spec.k} information bits, got {a.shape[-1]}")
    if not spec._downward_closed:
        raise ValueError("systematic encoding needs a frozen set that is downward "
                         "closed under the binary-submask order")
    shape = a.shape[:-1] + (spec.N,)
    if out is None:
        out = np.empty(shape, dtype=np.uint8)
    elif out.shape != shape or out.dtype != np.uint8 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous uint8 array of shape {shape}")
    if spec.k:
        # the indices are in range; mode="raise" would fill a buffered copy of out
        np.take(a, spec._gather, axis=-1, out=out, mode="clip")
        out *= spec._keep
    else:
        out.fill(0)
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
    # most significant nibble holds the lowest indices
    n = mask.size
    width = (n + 3) // 4
    v = 0
    for j in np.flatnonzero(mask):
        v |= 1 << (4 * width - 1 - int(j))
    return format(v, f"0{width}x")


def spec_from_text(text):
    """Parse the mask file format: N=, k=, optional design_sigma2=, mask line.

    The mask line is either a hex bitmask (most significant nibble = lowest
    indices, exactly ceil(N/4) digits) or a sorted decimal index list
    separated by spaces or commas.  A bare token of exactly ceil(N/4) hex
    digits is always read as hex.
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
    if len(token) == 1 and len(token[0]) == width and _is_hex(token[0]):
        v = int(token[0], 16)
        bits = 4 * width
        mask = np.zeros(N, dtype=bool)
        for j in range(bits):
            if (v >> (bits - 1 - j)) & 1:
                if j >= N:
                    raise MaskFileError(f"line {lineno}: padding bits must be zero")
                mask[j] = True
        return mask
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


def _is_hex(tok):
    try:
        int(tok, 16)
        return True
    except ValueError:
        return False
