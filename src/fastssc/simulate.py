"""BPSK-AWGN Monte-Carlo harness.

Frames are drawn, systematically encoded, transmitted over the simulated
channel, decoded with the compiled engine, and scored on information bits.
Every batch derives its RNG stream from (seed, point index, batch index)
and batches are consumed strictly in index order, so aggregate counts are
reproducible for any worker count, and byte-identical CSV output only
excludes the wall-clock throughput column.
"""

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import starmap

import numpy as np

from . import _clib
from .compiler import NodeRuleSet, build_tree, compile_tree, estimate_latency
from .engine import execute
from .polar import encode_systematic
from .quantize import quantize_channel


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


def awgn_bpsk_llr(x, sigma, rng, out=None):
    """Modulate bits to +-1, add white Gaussian noise, return channel LLRs.

    LLR_i = 2 y_i / sigma^2 with y = (1 - 2 x) + n, n ~ N(0, sigma^2).

    out, a C-contiguous float64 array of x's shape, receives the LLRs when
    given; they are formed in place with the same rounding, so the values do
    not depend on it.  numpy draws the noise; the arithmetic after it runs in
    one pass of the C library when it loads, again with the same rounding.
    """
    # ebno_to_sigma2's rule: a finite, positive sigma with a finite LLR scale 2/sigma^2
    sigma2 = sigma * sigma
    if not 0 < sigma < np.inf or not 0 < sigma2 or not 2.0 / sigma2 < np.inf:
        raise ValueError(f"sigma must be finite and positive, with a finite 2/sigma^2; "
                         f"got {sigma}")
    x = np.asarray(x)
    if out is None:
        out = np.empty(x.shape)
    elif out.shape != x.shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {x.shape}")
    y = rng.standard_normal(out=out)
    lib = _clib.library()
    if lib is not None:
        bits = np.ascontiguousarray(x.view(np.int8) if x.dtype == np.uint8 else x, np.int8)
        lib.channel(y.ctypes.data, bits.ctypes.data, y.size, sigma, sigma2)
        return y
    y *= sigma
    y += 1 - 2 * np.asarray(x, dtype=np.int8)  # +-1 as int8, exact in float64
    y *= 2.0
    y /= sigma2
    return y


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
    whichever comes first, evaluated on whole batches.
    """
    spec = config.spec
    program = compile_tree(build_tree(spec, config.p, config.rules))
    cycles = estimate_latency(program)
    rate = spec.k / spec.N
    bound = (program, config.quant, min(config.batch_size, config.max_frames))
    results = []
    pool = None
    try:
        if config.workers > 1:
            pool = ProcessPoolExecutor(config.workers, initializer=_init_worker, initargs=bound)
            decode = partial(_in_order, pool, 2 * config.workers)
        else:
            decode = partial(starmap, _bind_batch(*bound))
        for point_idx, ebno in enumerate(config.ebno_db):
            sigma2 = ebno_to_sigma2(ebno, rate)
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


def _in_order(pool, depth, jobs):
    """Pool results of jobs in job order, with up to depth jobs in flight."""
    futures = []
    try:
        for job in jobs:
            futures.append(pool.submit(_pool_task, *job))
            if len(futures) == depth:
                yield futures.pop(0).result()
        while futures:
            yield futures.pop(0).result()
    finally:
        for fut in futures:
            fut.cancel()


_WORK = {}


def _init_worker(program, quant, rows):
    _WORK["batch"] = _bind_batch(program, quant, rows)


def _pool_task(*job):
    return _WORK["batch"](*job)


def _bind_batch(program, quant, rows):
    """_sim_batch bound to a program, a scheme and one reused (rows, N) workspace."""
    shape = (rows, program.N)
    work = np.empty(shape, np.uint8), np.empty(shape), np.empty(shape, np.uint8)
    return partial(_sim_batch, program, quant, work)


def _sim_batch(program, quant, work, entropy, sigma, size):
    """Decode one batch of random frames; returns (size, bit errors, frame errors).

    The codewords, the LLRs and the wrong decisions are formed in the first
    `size` rows of the workspace; the drawn bits, the quantized LLRs and the
    decisions are fresh arrays.  Systematic codewords carry the bits at the
    unfrozen positions, so a decision there is wrong where it differs from
    the codeword.
    """
    spec = program.spec
    codewords, llr, wrong = (w[:size] for w in work)
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    a = rng.integers(0, 2, size=(size, spec.k), dtype=np.uint8)
    x = encode_systematic(a, spec, out=codewords)
    llr = awgn_bpsk_llr(x, sigma, rng, out=llr)
    if quant is not None:
        llr = quantize_channel(llr, quant)
    beta = execute(program, llr, quant)
    np.bitwise_xor(beta, x, out=wrong)
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
    a = rng.integers(0, 2, size=(frames, spec.k), dtype=np.uint8)
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
