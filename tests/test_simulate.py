import os
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from fastssc import _clib, engine, simulate
from fastssc.compiler import build_tree, compile_tree, estimate_latency
from fastssc.engine import execute
from fastssc.polar import CodeSpec, construct_frozen_set, encode_systematic
from fastssc.quantize import QuantScheme, quantize_channel
from fastssc.simulate import (
    SimConfig,
    awgn_bpsk_llr,
    bench,
    ebno_to_sigma2,
    results_to_csv,
    run_simulation,
)

CSV_HEADER = (
    "ebno_db,sigma2,frames,bit_errors,frame_errors,ber,fer,"
    "info_throughput_bps,cycles_per_frame"
)


def small_config(**kw):
    spec = construct_frozen_set(7, 64, 0.5)
    base = dict(
        spec=spec,
        ebno_db=(2.0,),
        p=32,
        seed=5,
        min_frame_errors=20,
        max_frames=4096,
        batch_size=64,
    )
    base.update(kw)
    return SimConfig(**base)


def test_ebno_to_sigma2():
    assert ebno_to_sigma2(0.0, 0.5) == 1.0
    assert np.isclose(ebno_to_sigma2(3.0, 0.5), 1.0 / 10.0 ** 0.3)
    # halving the rate doubles the tolerable noise power
    assert np.isclose(ebno_to_sigma2(2.0, 0.25), 2.0 * ebno_to_sigma2(2.0, 0.5))
    with pytest.raises(ValueError):
        ebno_to_sigma2(1.0, 0.0)
    with pytest.raises(ValueError):
        ebno_to_sigma2(1.0, 1.2)
    # the variance must come out finite and positive, and 2/sigma^2 finite:
    # 3080 dB gives a subnormal variance, 1e-308 at rate 0.5
    for ebno in (-np.inf, np.inf, np.nan, 4000.0, 3080.0):
        with pytest.raises(ValueError, match="noise variance"):
            ebno_to_sigma2(ebno, 0.5)


@pytest.mark.parametrize("ebno, quant, match", [
    ((6.0, 1e6), None, "Eb/N0 1000000.0 dB gives no finite, positive noise variance"),
    ((6.0, 1e6), QuantScheme(7, 5, 1), "noise variance"),
    # 2/sigma^2 = 2e306 > 2^1015 (~3.5e305), the float limit at N = 256
    ((1.0, 3060.0), None, r"Eb/N0 3060.0 dB gives noiseless LLRs of \+-2e\+306, beyond the "
                          r"\+-2\^1015 \(~3.511e\+305\) float limit at N = 256"),
], ids=["no-variance", "no-variance-7:5:1", "float-limit"])
def test_every_point_is_checked_before_the_first_batch(ebno, quant, match, monkeypatch):
    calls = []
    monkeypatch.setattr(simulate, "_sim_batch", lambda *args: calls.append(args))
    cfg = SimConfig(spec=construct_frozen_set(8, 128, 0.5), ebno_db=ebno, quant=quant,
                    max_frames=64)
    with pytest.raises(ValueError, match=match):
        run_simulation(cfg)
    assert not calls


def test_fixed_point_runs_past_the_float_limit():
    """The float limit bounds float input only: a quantized run clips its LLRs."""
    cfg = SimConfig(spec=construct_frozen_set(8, 128, 0.5), ebno_db=(3060.0,),
                    quant=QuantScheme(7, 5, 1), max_frames=64)
    (r,) = run_simulation(cfg)
    assert (r.frames, r.frame_errors) == (64, 0)


def test_awgn_llr_statistics():
    sigma2 = 0.8
    rng = np.random.default_rng(0)
    llr = awgn_bpsk_llr(np.zeros(200_000, dtype=np.uint8), np.sqrt(sigma2), rng)
    assert np.isclose(llr.mean(), 2.0 / sigma2, rtol=0.03)
    assert np.isclose(llr.var(), 4.0 / sigma2, rtol=0.03)

    x = np.random.default_rng(1).integers(0, 2, size=5000, dtype=np.uint8)
    llr = awgn_bpsk_llr(x, 0.05, np.random.default_rng(2))
    assert np.array_equal(llr < 0, x.astype(bool))

    with pytest.raises(ValueError):
        awgn_bpsk_llr(x, 0.0, rng)


@pytest.mark.parametrize("sigma", [np.inf, 1e-200])  # NaN LLRs; sigma^2 underflows to 0
def test_awgn_rejects_sigma_without_finite_llrs(sigma, builds, monkeypatch):
    """On the numpy steps and on each compiled build, before anything is drawn."""
    x = np.zeros(8, np.uint8)
    for lib in [None, *builds.values()]:
        monkeypatch.setattr(_clib, "library", lambda: lib)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="finite"):
            awgn_bpsk_llr(x, sigma, rng)
        assert rng.bit_generator.state == state


def test_awgn_seeded_reproducible():
    x = np.zeros((4, 16), dtype=np.uint8)
    a = awgn_bpsk_llr(x, 0.7, np.random.default_rng(42))
    b = awgn_bpsk_llr(x, 0.7, np.random.default_rng(42))
    assert np.array_equal(a, b)


def parent_awgn(x, sigma, rng):
    """The original formula, one fresh temporary per operation."""
    y = (1.0 - 2.0 * np.asarray(x)) + sigma * rng.standard_normal(np.shape(x))
    return 2.0 * y / (sigma * sigma)


def test_awgn_equals_original_formula():
    bits = np.random.default_rng(9).integers(0, 2, size=(3, 5, 64), dtype=np.uint8)
    for sigma in (0.05, 0.3, 0.7071067811865476, 1.0, 2.5, 40.0):
        for x in (bits[0, 0], bits[0], bits, bits.astype(bool), bits[..., ::2]):
            want = parent_awgn(x, sigma, np.random.default_rng(11))
            got = awgn_bpsk_llr(x, sigma, np.random.default_rng(11))
            assert np.array_equal(got, want)


def reference_run(cfg):
    """(frames, bit errors, frame errors) per point, scored from the information bits.

    Re-derives the batch schedule and per-batch RNG streams of run_simulation
    with the original channel formula; the stop rules are those of the serial
    path.
    """
    spec = cfg.spec
    program = compile_tree(build_tree(spec, cfg.p, cfg.rules))
    counts = []
    for point, ebno in enumerate(cfg.ebno_db):
        sigma = float(np.sqrt(ebno_to_sigma2(ebno, spec.k / spec.N)))
        frames = bit_err = frame_err = b = 0
        while frame_err < cfg.min_frame_errors and frames < cfg.max_frames:
            size = min(cfg.batch_size, cfg.max_frames - frames)
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, point, b)))
            a = rng.integers(0, 2, size=(size, spec.k), dtype=np.uint8)
            llr = parent_awgn(encode_systematic(a, spec), sigma, rng)
            if cfg.quant is not None:
                llr = quantize_channel(llr, cfg.quant)
            wrong = execute(program, llr, cfg.quant)[:, spec.info_positions] != a
            frames += size
            bit_err += int(wrong.sum())
            frame_err += int(wrong.any(axis=1).sum())
            b += 1
        counts.append((frames, bit_err, frame_err))
    return counts


def counts(results):
    return [(r.frames, r.bit_errors, r.frame_errors) for r in results]


@pytest.mark.parametrize("quant", [None, QuantScheme(7, 5, 1)])
def test_partial_last_batch_matches_fresh_arrays(quant):
    # 200 = 3 * 64 + 8: the last batch has 8 rows; max_frames below
    # batch_size gives one short batch per point
    for max_frames, batch in ((200, 64), (40, 64)):
        cfg = small_config(ebno_db=(1.5, 2.5), quant=quant, max_frames=max_frames,
                           batch_size=batch, min_frame_errors=10_000)
        got = counts(run_simulation(cfg))
        assert got == reference_run(cfg)
        assert [c[0] for c in got] == [max_frames] * 2


def test_two_specs_alternate_in_one_process():
    a = small_config(ebno_db=(2.0,), max_frames=300, min_frame_errors=10_000)
    b = small_config(spec=construct_frozen_set(6, 40, 0.5), ebno_db=(3.0,),
                     quant=QuantScheme(7, 5, 1), max_frames=300, batch_size=48,
                     min_frame_errors=10_000)
    want = {id(a): reference_run(a), id(b): reference_run(b)}
    for cfg in (a, b, a, b):
        assert counts(run_simulation(cfg)) == want[id(cfg)]


def test_concurrent_runs_give_serial_csv():
    # one code and batch size, so buffers keyed by shape would be shared; the
    # first run's batches also run on four threads of its own
    configs = [
        small_config(ebno_db=(2.0, 3.0), max_frames=600, min_frame_errors=10_000, workers=4),
        small_config(ebno_db=(2.0,), quant=QuantScheme(7, 5, 1), max_frames=600,
                     min_frame_errors=10_000),
        small_config(ebno_db=(2.5,), seed=6, max_frames=600, min_frame_errors=10_000),
    ]
    want = [results_to_csv(run_simulation(replace(c, workers=1)), include_throughput=False)
            for c in configs]
    got = [[] for _ in configs]

    def worker(i):
        for _ in range(3):
            got[i].append(results_to_csv(run_simulation(configs[i]), include_throughput=False))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(configs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 3 for w in want]


def test_captured_bits_and_decisions_are_not_aliased(monkeypatch):
    bits, decided = [], []

    def capture(fn, sink, pick):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            sink.append(pick(args, out))
            return out
        return wrapper

    monkeypatch.setattr(simulate, "encode_systematic",
                        capture(simulate.encode_systematic, bits, lambda args, out: args[0]))
    monkeypatch.setattr(simulate, "execute",
                        capture(simulate.execute, decided, lambda args, out: out))
    for quant in (None, QuantScheme(7, 5, 1)):
        bits.clear()
        decided.clear()
        cfg = small_config(ebno_db=(1.5,), quant=quant, max_frames=200,
                           min_frame_errors=10_000)
        (r,) = run_simulation(cfg)
        assert len(bits) == len(decided) == 4
        arrays = bits + decided
        for i, u in enumerate(arrays):
            for v in arrays[i + 1:]:
                assert not np.shares_memory(u, v)
        # recounting from the captures gives the reported counts
        wrong = np.concatenate(decided)[:, cfg.spec.info_positions] != np.concatenate(bits)
        assert (r.bit_errors, r.frame_errors) == (int(wrong.sum()), int(wrong.any(axis=1).sum()))


def test_run_simulation_deterministic():
    cfg = small_config(ebno_db=(2.0, 3.0))
    first = run_simulation(cfg)
    second = run_simulation(small_config(ebno_db=(2.0, 3.0)))
    assert len(first) == 2
    for r1, r2 in zip(first, second):
        assert (r1.frames, r1.bit_errors, r1.frame_errors) == (
            r2.frames,
            r2.bit_errors,
            r2.frame_errors,
        )
        assert r1.sigma2 == r2.sigma2
    assert results_to_csv(first, include_throughput=False) == results_to_csv(
        second, include_throughput=False
    )


def test_workers_match_serial():
    # the second run ends on a partial batch: 300 = 4 * 64 + 44
    partial = dict(ebno_db=(1.5, 2.5), quant=QuantScheme(7, 5, 1), max_frames=300,
                   min_frame_errors=10_000)
    # three points stop on frame errors after 1, 3 and 16 batches, each with
    # later batches still in flight in the pool
    staggered = dict(ebno_db=(1.0, 2.0, 3.0), min_frame_errors=20)
    # max_frames below batch_size: one short batch per point, so that at
    # workers=8 most threads get no batch
    short = dict(ebno_db=(1.5, 2.5), max_frames=40, min_frame_errors=10_000)
    frames = []
    for cfg in ({}, partial, staggered, short):
        serial = run_simulation(small_config(workers=1, **cfg))
        for workers in (2, 8):
            pooled = run_simulation(small_config(workers=workers, **cfg))
            assert counts(pooled) == counts(serial)
            assert (results_to_csv(pooled, include_throughput=False)
                    == results_to_csv(serial, include_throughput=False))
        frames.append([c[0] for c in counts(serial)])
    assert frames[1:] == [[300, 300], [64, 192, 1024], [40, 40]]


def test_pooled_batches_see_the_callers_patches(monkeypatch):
    # the pool's workers are threads of this process: a wrapper patched onto
    # the module runs for every batch, in this process
    pids = []

    def recorded(*args, **kwargs):
        pids.append(os.getpid())
        return execute(*args, **kwargs)

    monkeypatch.setattr(simulate, "execute", recorded)
    cfg = small_config(ebno_db=(1.5, 2.5), max_frames=300, min_frame_errors=10_000,
                       workers=2)
    assert [r.frames for r in run_simulation(cfg)] == [300, 300]
    assert pids == [os.getpid()] * 10  # 5 batches per point


def test_each_batch_shape_links_once(monkeypatch):
    # 200 = 128 + 72: every point runs a full batch and a short one, and the
    # engine keeps both plans across the three points; with no library the
    # reference loop runs, which links nothing
    linked = []
    link = engine._link

    def spy(program, batch, *args):
        linked.append(batch)
        return link(program, batch, *args)

    monkeypatch.setattr(engine, "_link", spy)
    cfg = SimConfig(spec=construct_frozen_set(8, 128, 0.5), ebno_db=(1.0, 2.0, 3.0),
                    max_frames=200, min_frame_errors=10_000)
    assert [r.frames for r in run_simulation(cfg)] == [200] * 3
    assert linked == ([128, 72] if _clib.library() is not None else [])


def test_pooled_float_batches_link_a_plan_per_thread(monkeypatch):
    # a call takes an idle plan of its shape off the shape's stack and puts
    # it back when it returns, so two threads that decode one shape link two
    # plans, not one more for each call that finds the other thread's busy
    linked = []
    link = engine._link

    def spy(program, batch, *args):
        linked.append(batch)
        return link(program, batch, *args)

    monkeypatch.setattr(engine, "_link", spy)
    cfg = SimConfig(spec=construct_frozen_set(10, 512, 0.5), ebno_db=(1.0, 2.0),
                    max_frames=40 * 64 + 24, min_frame_errors=10**9, batch_size=64, workers=2)
    assert [r.frames for r in run_simulation(cfg)] == [cfg.max_frames] * 2
    if _clib.library() is None:
        assert linked == []
    else:
        assert set(linked) == {64, 24}
        assert max(map(linked.count, set(linked))) <= 2, linked


def test_stops_on_frame_errors():
    cfg = small_config(ebno_db=(0.0,), min_frame_errors=5, batch_size=32)
    (r,) = run_simulation(cfg)
    assert r.frame_errors >= 5
    assert r.frames % 32 == 0
    assert r.frames <= cfg.max_frames
    assert r.fer == r.frame_errors / r.frames
    assert r.ber == r.bit_errors / (64 * r.frames)


def test_stops_on_max_frames():
    # clean channel: the error budget is never met, the frame cap is exact
    cfg = small_config(ebno_db=(12.0,), max_frames=100, batch_size=32)
    (r,) = run_simulation(cfg)
    assert r.frames == 100
    assert r.frame_errors == 0
    assert r.fer == 0.0
    assert r.bit_errors == 0


def test_fer_decreases_with_snr():
    cfg = small_config(ebno_db=(1.0, 3.0, 5.0), min_frame_errors=30)
    rs = run_simulation(cfg)
    fers = [r.fer for r in rs]
    assert fers[0] > fers[1] > fers[2]


def test_quantized_run_smoke():
    cfg = small_config(quant=QuantScheme(7, 5, 1), min_frame_errors=10)
    (r,) = run_simulation(cfg)
    assert r.frames > 0 and r.frame_errors >= 10
    assert 0.0 < r.fer < 1.0


def test_csv_format():
    rs = run_simulation(small_config(ebno_db=(2.0, 4.0), min_frame_errors=5))
    text = results_to_csv(rs)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert text.endswith("\n")
    fields = lines[1].split(",")
    assert len(fields) == 9
    assert int(fields[2]) == rs[0].frames
    assert np.isclose(float(fields[6]), rs[0].fer, rtol=1e-8)

    bare = results_to_csv(rs, include_throughput=False)
    assert bare.splitlines()[0] == CSV_HEADER.replace(",info_throughput_bps", "")
    assert all(len(l.split(",")) == 8 for l in bare.splitlines())


def test_bench_reports():
    spec = construct_frozen_set(7, 64, 0.5)
    prog = compile_tree(build_tree(spec, 32))
    empty = bench(prog, 0)
    assert empty["frames"] == 0
    assert empty["elapsed_s"] == 0.0
    assert empty["info_bps"] == 0.0
    assert empty["cycles_per_frame"] == estimate_latency(prog)

    report = bench(prog, 256, seed=3)
    assert report["frames"] == 256
    assert report["elapsed_s"] > 0.0
    assert report["info_bps"] > 0.0
    assert report["cycles_per_frame"] == estimate_latency(prog)


def test_bench_rejects_bad_sizes():
    spec = construct_frozen_set(5, 16, 0.5)
    prog = compile_tree(build_tree(spec, 32))
    with pytest.raises(ValueError, match="frames must be >= 0 and batch_size >= 1"):
        bench(prog, -5)
    for size in (0, -3):
        with pytest.raises(ValueError, match="frames must be >= 0 and batch_size >= 1"):
            bench(prog, 10, batch_size=size)
        with pytest.raises(ValueError, match="frames must be >= 0 and batch_size >= 1"):
            bench(prog, 0, batch_size=size)
    assert bench(prog, 10, batch_size=3)["frames"] == 10


def test_config_validation():
    spec = construct_frozen_set(5, 16, 0.5)
    with pytest.raises(ValueError):
        SimConfig(spec=spec, ebno_db=())
    with pytest.raises(ValueError):
        SimConfig(spec=spec, ebno_db=(1.0,), min_frame_errors=0)
    with pytest.raises(ValueError):
        SimConfig(spec=spec, ebno_db=(1.0,), max_frames=0)
    with pytest.raises(ValueError):
        SimConfig(spec=spec, ebno_db=(1.0,), batch_size=0)
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            SimConfig(spec=spec, ebno_db=(1.0,), workers=workers)
    with pytest.raises(ValueError):
        SimConfig(spec=CodeSpec(frozen_mask=np.ones(16, dtype=bool)), ebno_db=(1.0,))
