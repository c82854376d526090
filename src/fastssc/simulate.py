"""BPSK-AWGN Monte-Carlo harness.

Frames are drawn, systematically encoded, transmitted over the simulated
channel, decoded with the compiled engine, and scored on information bits.
Every batch derives its RNG stream from (seed, point index, batch index)
and batches are consumed strictly in index order, so aggregate counts are
reproducible for any worker count, and byte-identical CSV output only
excludes the wall-clock throughput column.  With workers > 1 the batches
run on a pool of threads.  Where the compiled library loads, a fixed-point
batch runs its draws, encoder, channel, quantizer and decoder in it, with
the GIL released, so the threads run in parallel; a float decode still
dispatches most of its steps from Python, and gains little.  A batch forms
fresh arrays, so concurrent batches and runs share no buffers.
"""

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import starmap

import numpy as np

from . import _clib
from .compiler import NodeRuleSet, build_tree, compile_tree, estimate_latency
from .engine import execute
from .polar import encode_systematic
from .quantize import float_limit, quantize_channel


def ebno_to_sigma2(ebno_db, rate):
    """Noise variance for a given Eb/N0 in dB at code rate k/N."""
    if not 0 < rate <= 1:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    try:
        sigma2 = 1.0 / (2.0 * rate * 10.0 ** (ebno_db / 10.0))
    except (OverflowError, ZeroDivisionError):
        sigma2 = 0.0
    # a subnormal variance is finite, but the LLR scale 2/sigma^2 overflows
    if not 0 < sigma2 < np.inf or not 2.0 / sigma2 < np.inf:
        raise ValueError(f"Eb/N0 {ebno_db} dB gives no finite, positive noise variance")
    return sigma2


def awgn_bpsk_llr(x, sigma, rng):
    """Modulate bits to +-1, add white Gaussian noise, return channel LLRs.

    LLR_i = 2 y_i / sigma^2 with y = (1 - 2 x) + n, n ~ N(0, sigma^2), in a
    fresh float64 array of x's shape.  Where the C library loads with its
    PCG64 draws and rng is a Generator over PCG64, the library draws the
    noise, the values numpy's `standard_normal` would draw, with the same
    state left behind, and forms the LLRs in the same pass with the same
    rounding.  Otherwise numpy draws the noise and forms the LLRs.
    """
    # ebno_to_sigma2's rule: a finite, positive sigma with a finite LLR scale 2/sigma^2
    sigma2 = sigma * sigma
    if not 0 < sigma < np.inf or not 0 < sigma2 or not 2.0 / sigma2 < np.inf:
        raise ValueError(f"sigma must be finite and positive, with a finite 2/sigma^2; "
                         f"got {sigma}")
    x = np.asarray(x)
    out = np.empty(x.shape)
    lib = _clib.library()
    if lib is not None and lib.awgn is not None and _is_pcg64(rng):
        bits = np.ascontiguousarray(x.view(np.int8) if x.dtype == np.uint8 else x, np.int8)
        _clib.pcg64_call(lib.awgn, rng, bits.ctypes.data, out.ctypes.data, out.size,
                         sigma, sigma2)
        return out
    y = rng.standard_normal(out=out)
    y *= sigma
    y += 1 - 2 * np.asarray(x, dtype=np.int8)  # +-1 as int8, exact in float64
    y *= 2.0
    y /= sigma2
    return y


def _random_bits(rng, shape):
    """rng.integers(0, 2, shape, dtype=np.uint8), drawn by the C library where
    it loads and rng is a Generator over PCG64, with the same values and state."""
    lib = _clib.library()
    if lib is None or lib.bits is None or not _is_pcg64(rng):
        return rng.integers(0, 2, size=shape, dtype=np.uint8)
    a = np.empty(shape, np.uint8)
    _clib.pcg64_call(lib.bits, rng, a.ctypes.data, a.size)
    return a


def _is_pcg64(rng):
    return type(rng) is np.random.Generator and type(rng.bit_generator) is np.random.PCG64


@dataclass
class SimConfig:
    """One Monte-Carlo run: code, engine setup, SNR sweep, and stop rules."""

    spec: object
    ebno_db: tuple
    p: int = 256
    rules: NodeRuleSet = field(default_factory=NodeRuleSet)
    quant: object = None
    seed: int = 0
    min_frame_errors: int = 100
    max_frames: int = 10_000_000
    workers: int = 1
    batch_size: int = 128

    def __post_init__(self):
        self.ebno_db = tuple(float(e) for e in self.ebno_db)
        if not self.ebno_db:
            raise ValueError("ebno_db list must not be empty")
        if self.min_frame_errors < 1:
            raise ValueError("min_frame_errors must be >= 1")
        if min(self.max_frames, self.batch_size, self.workers) < 1:
            raise ValueError("max_frames, batch_size and workers must be >= 1")
        if self.spec.k == 0:
            raise ValueError("cannot simulate a code with no information bits")


@dataclass(frozen=True)
class SimResult:
    ebno_db: float
    sigma2: float
    frames: int
    bit_errors: int
    frame_errors: int
    ber: float
    fer: float
    info_throughput_bps: float
    cycles_per_frame: int
    elapsed_s: float


def run_simulation(config):
    """Simulate every configured Eb/N0 point; returns a list of SimResult.

    Each point stops at min_frame_errors frame errors or max_frames frames,
    whichever comes first, evaluated on whole batches.  Every point's noise
    variance is checked before the first batch: one that is not finite and
    positive raises ValueError, and so, in float, does one whose noiseless
    LLR 2/sigma^2 is beyond the float limit of the decoder's input.
    """
    spec = config.spec
    sigma2s = [ebno_to_sigma2(ebno, spec.k / spec.N) for ebno in config.ebno_db]
    lim = float_limit(spec.N)
    for ebno, sigma2 in zip(config.ebno_db, sigma2s):
        if config.quant is None and 2.0 / sigma2 > lim:
            raise ValueError(f"Eb/N0 {ebno} dB gives noiseless LLRs of +-{2.0 / sigma2:.4g}, "
                             f"beyond the +-2^{1023 - spec.n_bits} (~{lim:.4g}) float "
                             f"limit at N = {spec.N}")
    program = compile_tree(build_tree(spec, config.p, config.rules))
    cycles = estimate_latency(program)
    batch = partial(_sim_batch, program, config.quant)
    results = []
    pool = None
    try:
        if config.workers > 1:
            pool = ThreadPoolExecutor(config.workers)
            decode = partial(_in_order, pool, 2 * config.workers, batch)
        else:
            decode = partial(starmap, batch)
        for point_idx, (ebno, sigma2) in enumerate(zip(config.ebno_db, sigma2s)):
            t0 = time.perf_counter()
            frames, bit_err, frame_err = _run_point(config, point_idx, sigma2, decode)
            elapsed = time.perf_counter() - t0
            results.append(
                SimResult(
                    ebno_db=ebno,
                    sigma2=sigma2,
                    frames=frames,
                    bit_errors=bit_err,
                    frame_errors=frame_err,
                    ber=bit_err / (spec.k * frames),
                    fer=frame_err / frames,
                    info_throughput_bps=spec.k * frames / elapsed if elapsed > 0 else 0.0,
                    cycles_per_frame=cycles,
                    elapsed_s=elapsed,
                )
            )
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return results


def _run_point(config, point_idx, sigma2, decode):
    """Sum one point's batches in index order; the job stream ends at max_frames."""
    batch, max_frames = config.batch_size, config.max_frames
    sigma = float(np.sqrt(sigma2))
    jobs = (
        ((config.seed, point_idx, start // batch), sigma, min(batch, max_frames - start))
        for start in range(0, max_frames, batch)
    )
    frames = bit_err = frame_err = 0
    for size, be, fe in decode(jobs):
        frames += size
        bit_err += be
        frame_err += fe
        if frame_err >= config.min_frame_errors:
            break  # closes a pooled decode, which cancels what is in flight
    return frames, bit_err, frame_err


def _in_order(pool, depth, fn, jobs):
    """fn's results on the pool's threads in job order, with up to depth jobs in flight."""
    futures = []
    try:
        for job in jobs:
            futures.append(pool.submit(fn, *job))
            if len(futures) == depth:
                yield futures.pop(0).result()
        while futures:
            yield futures.pop(0).result()
    finally:
        for fut in futures:
            fut.cancel()


def _sim_batch(program, quant, entropy, sigma, size):
    """Decode one batch of random frames; returns (size, bit errors, frame errors).

    Systematic codewords carry the bits at the unfrozen positions, so a
    decision there is wrong where it differs from the codeword.  The drawn
    bits, the codewords and the decisions are left as they were formed.
    """
    spec = program.spec
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    x = encode_systematic(_random_bits(rng, (size, spec.k)), spec)
    llr = awgn_bpsk_llr(x, sigma, rng)
    if quant is not None:
        llr = quantize_channel(llr, quant)
    wrong = execute(program, llr, quant) ^ x
    wrong &= spec._keep
    return size, int(np.count_nonzero(wrong)), int(np.count_nonzero(wrong.any(axis=1)))


_CSV_COLUMNS = (
    "ebno_db",
    "sigma2",
    "frames",
    "bit_errors",
    "frame_errors",
    "ber",
    "fer",
    "info_throughput_bps",
    "cycles_per_frame",
)


def results_to_csv(results, include_throughput=True):
    """Render results as CSV text.

    The throughput column is wall-clock derived and therefore varies run to
    run; pass include_throughput=False for byte-reproducible output.
    """
    cols = [c for c in _CSV_COLUMNS if include_throughput or c != "info_throughput_bps"]
    lines = [",".join(cols)]
    for r in results:
        row = {
            "ebno_db": f"{r.ebno_db:.6g}",
            "sigma2": f"{r.sigma2:.10g}",
            "frames": str(r.frames),
            "bit_errors": str(r.bit_errors),
            "frame_errors": str(r.frame_errors),
            "ber": f"{r.ber:.8e}",
            "fer": f"{r.fer:.8e}",
            "info_throughput_bps": f"{r.info_throughput_bps:.6g}",
            "cycles_per_frame": str(r.cycles_per_frame),
        }
        lines.append(",".join(row[c] for c in cols))
    return "\n".join(lines) + "\n"


def bench(program, frames, quant=None, ebno_db=4.0, seed=0, batch_size=128):
    """Time repeated decoding of pre-generated noisy frames.

    Returns a dict with the measured wall time, information throughput, and
    the modeled cycle count per frame.  Frame generation is excluded from
    the timed region.  frames == 0 yields an empty report.
    """
    if frames < 0 or batch_size < 1:
        raise ValueError("frames must be >= 0 and batch_size >= 1")
    spec = program.spec
    cycles = estimate_latency(program)
    report = {
        "frames": int(frames),
        "elapsed_s": 0.0,
        "info_bps": 0.0,
        "cycles_per_frame": cycles,
    }
    if frames == 0:
        return report
    rate = spec.k / spec.N
    sigma = float(np.sqrt(ebno_to_sigma2(ebno_db, rate)))
    rng = np.random.default_rng(np.random.SeedSequence((seed,)))
    a = _random_bits(rng, (frames, spec.k))
    llr = awgn_bpsk_llr(encode_systematic(a, spec), sigma, rng)
    if quant is not None:
        llr = quantize_channel(llr, quant)
    t0 = time.perf_counter()
    for off in range(0, frames, batch_size):
        execute(program, llr[off : off + batch_size], quant)
    elapsed = time.perf_counter() - t0
    report["elapsed_s"] = elapsed
    report["info_bps"] = spec.k * frames / elapsed if elapsed > 0 else 0.0
    return report
