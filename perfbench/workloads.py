"""The benchmark workloads, their output checks and the trace sites.

Every workload drives only the public API of fastssc.  Its inputs come from
the seed alone; the decoder sees nothing but the generated frames.  Codes
are built at a design Eb/N0 of 4 dB with the default node rules and P=256.
"""

import time

import numpy as np

from fastssc import compiler, engine, polar, quantize, reference, simulate
from spans import patched

DESIGN_EBNO_DB = 4.0
P = 256
# ML4 decodes its nodes by ML, not SC, so bit-exact agreement with the SC
# oracle only holds with it off.
ORACLE_RULES = "spc,rep,rep-spc"

KERNELS = (
    "f_op", "g_op", "combine_op", "hd_op",
    "decode_spc", "decode_rep", "decode_rep_spc", "decode_ml4",
)


def _fg_bytes(args, out):
    # operands a and b, the result, and the beta_l array when G gets one
    beta = args[2] if len(args) > 2 else None
    return args[0].nbytes + args[1].nbytes + out.nbytes + getattr(beta, "nbytes", 0)


# (module, attribute, span name, bytes counter): each public function is
# wrapped where its caller looks it up.  The benchmark's own calls go through
# polar / compiler / engine / simulate; run_simulation reaches the compiler,
# encoder, channel, quantizer and engine through its module globals, and the
# engine reaches the kernels through its own.
TRACE_SITES = [
    (polar, "construct_frozen_set", "polar.construct", None),
    (compiler, "build_tree", "compiler.build_tree", None),
    (compiler, "compile_tree", "compiler.compile_tree", None),
    (compiler, "estimate_latency", "compiler.estimate_latency", None),
    (engine, "execute", "engine.execute", None),
    (simulate, "run_simulation", "simulate.run_simulation", None),
    (simulate, "build_tree", "compiler.build_tree", None),
    (simulate, "compile_tree", "compiler.compile_tree", None),
    (simulate, "estimate_latency", "compiler.estimate_latency", None),
    (simulate, "encode_systematic", "polar.encode_systematic", None),
    (simulate, "awgn_bpsk_llr", "simulate.awgn_bpsk_llr", None),
    (simulate, "quantize_channel", "quantize.quantize_channel", None),
    (simulate, "execute", "engine.execute", None),
] + [
    (engine, name, f"kernels.{name}", _fg_bytes if name in ("f_op", "g_op") else None)
    for name in KERNELS
]


def build_code(n_bits, k):
    """The once-per-code set-up that setup_s times: construct, prune, compile, model."""
    spec = polar.construct_frozen_set(
        n_bits, k, simulate.ebno_to_sigma2(DESIGN_EBNO_DB, k / (1 << n_bits))
    )
    program = compiler.compile_tree(compiler.build_tree(spec, P))
    cycles = compiler.estimate_latency(program)
    return spec, program, cycles


def codeword_ok(beta, spec):
    """Per frame: True when beta is a codeword, i.e. its source is zero on the frozen set."""
    return ~polar.encode_polar(beta)[..., spec.frozen_mask].any(axis=-1)


def error_counts(beta, bits, spec):
    wrong = beta[:, spec.info_positions] != bits
    return int(wrong.sum()), int(np.count_nonzero(wrong.any(axis=1)))


class Decode:
    """`execute` on pre-generated float frames at 4 dB, `batch` frames per call.

    A pool of frames is generated and decoded once before timing; the timed
    calls cycle through the pool, and every output must equal the reference
    decode of its frames, which must be codewords.  prepare() sets `points`,
    [[frames, bit errors, frame errors]] of the reference decode.
    """

    def __init__(self, n_bits, k, batch, pool_frames, oracle_frames, traced_calls):
        self.n_bits, self.k, self.batch = n_bits, k, batch
        self.frames_per_call = batch
        self.pool_frames = pool_frames
        self.oracle_frames = oracle_frames
        self.traced_calls = traced_calls

    def prepare(self, spec, program, seed):
        self.spec, self.program = spec, program
        rng = np.random.default_rng(seed)
        sigma = float(np.sqrt(simulate.ebno_to_sigma2(DESIGN_EBNO_DB, self.k / spec.N)))
        bits = rng.integers(0, 2, size=(self.pool_frames, self.k), dtype=np.uint8)
        self.llr = simulate.awgn_bpsk_llr(polar.encode_systematic(bits, spec), sigma, rng)
        calls = self.llr.reshape(-1, self.batch, spec.N)
        # one frame per call is a single channel vector, as a user would pass it
        self._inputs = [c[0] for c in calls] if self.batch == 1 else list(calls)
        ref = np.stack([engine.execute(program, x).reshape(self.batch, spec.N)
                        for x in self._inputs])
        self._ref = ref
        self._ref_ok = codeword_ok(ref, spec)
        self.points = [[self.pool_frames, *error_counts(ref.reshape(-1, spec.N), bits, spec)]]
        self._next = 0

    def run_once(self):
        """One timed `execute` call; returns (wall seconds, frames failing the check)."""
        j = self._next
        self._next = (j + 1) % len(self._inputs)
        x = self._inputs[j]
        t0 = time.perf_counter()
        beta = engine.execute(self.program, x)
        wall = time.perf_counter() - t0
        differs = (beta.reshape(self.batch, -1) != self._ref[j]).any(axis=-1)
        return wall, int(np.count_nonzero(differs | ~self._ref_ok[j]))

    def verify(self, calls):
        """SC-oracle cross-check on a fixed sample of the pool.

        Returns (extra failed frames, report, oracle passed).
        """
        sample = self.llr[: self.oracle_frames]
        rules = compiler.rules_from_names(ORACLE_RULES)
        plain = compiler.compile_tree(compiler.build_tree(self.spec, P, rules))
        mismatch = np.count_nonzero(
            (engine.execute(plain, sample) != reference.sc_decode(sample, self.spec)).any(axis=-1)
        )
        report = {
            "points": self.points,
            "oracle": {"rules": ORACLE_RULES, "frames": self.oracle_frames,
                       "mismatched": int(mismatch)},
        }
        return 0, report, bool(mismatch == 0)


class Sim:
    """`run_simulation` at 7:5:1 over a fixed Eb/N0 sweep and fixed stop rules.

    min_frame_errors can never be reached, so every call decodes exactly
    frames_per_point frames per point and every run decodes the same frames.
    prepare() sets `points`, [frames, bit errors, frame errors] per Eb/N0
    point of an untimed first call.
    """

    traced_calls = 3

    def __init__(self, n_bits, k, quant, ebno_db, frames_per_point):
        self.n_bits, self.k = n_bits, k
        self.quant = quantize.parse_quant(quant)
        self.ebno_db = ebno_db
        self.frames_per_point = frames_per_point
        self.frames_per_call = frames_per_point * len(ebno_db)

    def prepare(self, spec, program, seed):
        self.spec = spec
        self.config = simulate.SimConfig(
            spec=spec, ebno_db=self.ebno_db, quant=self.quant, seed=seed,
            min_frame_errors=self.frames_per_point + 1, max_frames=self.frames_per_point,
        )
        self.points = self._counts(simulate.run_simulation(self.config))

    @staticmethod
    def _counts(results):
        return [[r.frames, r.bit_errors, r.frame_errors] for r in results]

    def run_once(self):
        """One timed `run_simulation` call; returns (wall seconds, frames failing the check)."""
        t0 = time.perf_counter()
        results = simulate.run_simulation(self.config)
        wall = time.perf_counter() - t0
        return wall, 0 if self._counts(results) == self.points else self.frames_per_call

    def verify(self, calls):
        """Re-run one call with capture wrappers and check every decoded frame.

        Each frame must be a codeword, and the bit and frame errors recounted
        from the captured information bits must equal the reported counts.
        Every call decodes these same frames, so each bad one counts once per
        call.  Returns (extra failed frames, report, oracle passed).
        """
        bits, decoded = [], []

        def capture(fn, sink, pick):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                sink.append(pick(args, out))
                return out
            return wrapper

        with_capture = [
            (simulate, "encode_systematic",
             capture(simulate.encode_systematic, bits, lambda args, out: args[0])),
            (simulate, "execute", capture(simulate.execute, decoded, lambda args, out: out)),
        ]
        with patched(with_capture):
            results = simulate.run_simulation(self.config)
        bits, beta = np.concatenate(bits), np.concatenate(decoded)
        bad = int(np.count_nonzero(~codeword_ok(beta, self.spec)))
        recount, off = [], 0
        for r in results:
            recount.append([r.frames, *error_counts(beta[off: off + r.frames],
                                                    bits[off: off + r.frames], self.spec)])
            off += r.frames
        if recount != self.points or self._counts(results) != self.points or off != len(beta):
            bad = self.frames_per_call
        report = {"ebno_db": list(self.ebno_db), "points": self.points,
                  "oracle": "skipped: fixed point diverges from SC by design"}
        return bad * calls, report, True


WORKLOADS = {
    "sim-2048-q751": Sim(11, 1723, "7:5:1", (3.5, 4.0, 4.5), frames_per_point=512),
    "decode-1024-b1": Decode(10, 512, batch=1, pool_frames=256, oracle_frames=64,
                             traced_calls=256),
    "decode-32768-b128": Decode(15, 29492, batch=128, pool_frames=128, oracle_frames=8,
                                traced_calls=3),
}
