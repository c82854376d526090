"""The compiled library, `_cengine.c`, against the numpy steps it stands in for.

`engine.execute` decodes fixed-point frames in the library when it loads,
and `encode_systematic`, `awgn_bpsk_llr` (after the draw) and
`quantize_channel` run there too; the numpy steps are their bit-exact
reference.
Every comparison runs on each ISA level's build, through the `builds`
fixture, and reaches the numpy steps by making `_clib.library` return None,
which is also what a missing compiler or a failed build gives, there with a
UserWarning.
"""

import os
import shutil
import subprocess
import sys
import threading
from functools import partial
from unittest import mock

import numpy as np
import pytest

from fastssc import _clib, engine
from fastssc.compiler import build_tree, compile_tree, rules_from_names
from fastssc.engine import execute
from fastssc.polar import (
    CodeSpec, bit_reverse_permutation, construct_frozen_set, encode_systematic,
)
from fastssc.quantize import parse_quant, quantize_channel
from fastssc.simulate import awgn_bpsk_llr

SCHEMES = ["6:4:0", "7:5:1", "8:8:0", "16:12:2", "31:31:0"]  # int8, int8, int16, int32, int32
RULES = ["all", "ssc", "none", "spc,rep,rep-spc"]
# 33 and 70 leave a partial group of frames for every lane count (32, 16, 8)
BATCHES = (0, 1, 3, 7, 33, 70, 128)


def on(lib):
    """Run with this build of the library, or with None on the numpy steps."""
    return mock.patch.object(_clib, "library", lambda: lib)


def numpy_execute(prog, x, q):
    with on(None):
        return execute(prog, x, quant=q)


def sweep_frames(n, lim, rng):
    """128 frames uniform over the channel range, 128 dense with zeros (ties
    everywhere) and 128 at +-lim (G saturates wherever 2*lim > the internal
    limit), as int32."""
    shape = (128, 1 << n)
    return [
        rng.integers(-lim, lim + 1, shape),
        rng.choice([-2, -1, 0, 0, 0, 1, 2], shape),
        rng.choice([-lim, lim], shape),
    ]


def sweep_codes():
    """(n, code) for n = 1..12: two GA codes, and codes made of ML leaves, of
    one R1 and of no information."""
    for n in range(1, 13):
        N = 1 << n
        for k8 in (3, 6):
            yield n, construct_frozen_set(n, max(1, N * k8 // 8), 0.5)
        if 2 <= n <= 8:  # every length-4 leaf is an ML leaf (N/4 of them: numpy is slow)
            natural = np.tile([True, False, True, False], N // 4)
            yield n, CodeSpec(frozen_mask=natural[bit_reverse_permutation(n)])
        for frozen in (False, True):
            yield n, CodeSpec(frozen_mask=np.full(N, frozen))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_c_equals_numpy(scheme, builds):
    q = parse_quant(scheme)
    rng = np.random.default_rng(int(q.internal_limit % 1000))
    for n, spec in sweep_codes():
        for rules in RULES:
            prog = compile_tree(build_tree(spec, 64, rules_from_names(rules)))
            frames = np.concatenate(sweep_frames(n, q.channel_limit, rng)).astype(np.int32)
            want = numpy_execute(prog, frames, q)
            for level, lib in builds.items():
                with on(lib):
                    for part in range(3):
                        x, ref = frames[128 * part:][:128], want[128 * part:][:128]
                        for b in BATCHES:
                            assert np.array_equal(execute(prog, x[:b], quant=q), ref[:b]), \
                                (level, n, rules, b)
                    # a single vector
                    assert np.array_equal(execute(prog, frames[5], quant=q), want[5]), level


def test_c_encoder_equals_numpy(builds):
    rng = np.random.default_rng(41)
    for n in range(1, 13):  # N < 8 has no whole 64-bit word
        N = 1 << n
        for spec in (CodeSpec(frozen_mask=np.ones(N, bool)),
                     CodeSpec(frozen_mask=np.zeros(N, bool)),
                     construct_frozen_set(n, max(1, N // 3), 0.5)):
            for lead in ((), (5,), (2, 3)):
                a = rng.integers(0, 2, lead + (spec.k,), dtype=np.uint8)
                inputs = a, a[..., ::-1]  # the second is not contiguous
                with on(None):
                    want = [encode_systematic(b, spec) for b in inputs]
                for level, lib in builds.items():
                    with on(lib):
                        got = [encode_systematic(b, spec) for b in inputs]
                    assert all(map(np.array_equal, got, want)), (level, n, spec.k, lead)


def test_c_channel_equals_numpy_formula(builds):
    """((z*sigma + (1 - 2x)) * 2) / sigma^2 rounds as numpy's separate passes
    do; a build that contracts z*sigma + (1 - 2x) into one FMA fails here."""
    x = np.random.default_rng(43).integers(0, 2, 1 << 20, dtype=np.uint8)
    for sigma in (0.1, 0.6309573445, 0.7071067811865476, 1.3, 40.0):
        with on(None):
            want = awgn_bpsk_llr(x, sigma, np.random.default_rng(44))
        for level, lib in builds.items():
            with on(lib):
                got = awgn_bpsk_llr(x, sigma, np.random.default_rng(44))
            assert np.array_equal(got, want), (level, sigma)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_c_quantizer_equals_numpy(scheme, builds):
    """Ties, their float neighbours, signed zeros, infinities, the range ends and NaN."""
    q = parse_quant(scheme)
    lim, scale = q.channel_limit, q.scale
    ks = np.unique(np.r_[np.arange(min(lim, 40) + 2), lim - 1 + np.arange(3)])
    ties = (ks + 0.5) / scale
    x = np.r_[ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf), ks / scale,
              0.0, -0.0, np.inf, 1e300, 5e-324, np.nextafter(0.5, 0) / scale]
    x = np.r_[x, -x]
    with on(None):
        want = quantize_channel(x, q)
        scalars = [quantize_channel(float(v), q) for v in x[:40]]
    for level, lib in builds.items():
        with on(lib):
            assert np.array_equal(quantize_channel(x.reshape(2, -1), q), want.reshape(2, -1)), level
            assert [quantize_channel(float(v), q) for v in x[:40]] == scalars
            with pytest.raises(ValueError, match="NaN"):
                quantize_channel(np.r_[x, np.nan], q)


def test_c_path_is_active_when_a_compiler_is_on_path(tmp_path):
    has_cc = shutil.which("cc") is not None
    assert (_clib.library() is not None) == has_cc
    # a fresh cache holds the baseline build afterwards, and the x86-64-v3
    # one where the baseline's probe passes, each under its keyed name; the
    # library is the v3 build exactly where the probe passes
    lib = _clib.library.__wrapped__("cc", tmp_path)
    assert (lib is not None) == has_cc
    names = sorted(p.name for p in tmp_path.iterdir())
    v3 = has_cc and bool(lib.cpu_supports_x86_64_v3())
    assert [name.rsplit("-", 1)[0] for name in names] == (
        ["_cengine-baseline"] * has_cc + ["_cengine-x86-64-v3"] * v3)
    assert all(name.endswith(".so") for name in names)
    assert not has_cc or ("x86-64-v3" in lib._name) == v3


def test_failed_v3_build_runs_the_baseline(builds, tmp_path):
    if "x86-64-v3" not in builds:
        pytest.skip("this CPU does not run x86-64-v3 code")
    cc, log = tmp_path / "cc", tmp_path / "cc.log"
    real = shutil.which("cc")
    cc.write_text(f"#!{sys.executable}\nimport os, sys\n"
                  f"open({str(log)!r}, 'a').write(' '.join(sys.argv) + '\\n')\n"
                  "if '-march=x86-64-v3' in sys.argv:\n    sys.exit(1)\n"
                  f"os.execv({real!r}, [{real!r}] + sys.argv[1:])\n")
    cc.chmod(0o755)
    # the second call loads the cached baseline build and the recorded v3 failure
    for _ in range(2):
        with pytest.warns(UserWarning, match="the x86-64-v3 build is unavailable"):
            lib = _clib.library.__wrapped__(str(cc), tmp_path / "cache")
        assert "baseline" in lib._name
    assert ["-march=x86-64-v3" in call for call in log.read_text().splitlines()] == [False, True]


def failing_compiler(path):
    """A compiler that logs its call to path.log, writes part of its output,
    then fails."""
    path.write_text(
        f"#!{sys.executable}\nimport sys\n"
        f"open({str(path) + '.log'!r}, 'a').write(' '.join(sys.argv) + '\\n')\n"
        "open(sys.argv[sys.argv.index('-o') + 1], 'wb').write(b'partial')\nsys.exit(1)\n"
    )
    path.chmod(0o755)
    return path


@pytest.mark.parametrize("compiler", ["missing", "failing"])
def test_failed_build_falls_back_to_numpy(compiler, tmp_path, monkeypatch):
    cc = tmp_path / "cc"
    reason = "no C compiler"
    if compiler == "failing":
        failing_compiler(cc)
        reason = "returned non-zero exit status 1"
    cache = tmp_path / "cache"
    q = parse_quant("7:5:1")
    prog = compile_tree(build_tree(construct_frozen_set(9, 300, 0.5), 64))
    x = sweep_frames(9, q.channel_limit, np.random.default_rng(3))[0].astype(np.int32)
    want = execute(prog, x, quant=q)  # the C path when a compiler is on PATH
    build = partial(_clib.library.__wrapped__, str(cc), cache)
    with pytest.warns(UserWarning, match=reason):
        assert build() is None
    monkeypatch.setattr(_clib, "library", build)
    with pytest.warns(UserWarning, match="fixed point runs on the slower numpy steps"):
        assert np.array_equal(execute(prog, x, quant=q), want)
    # no partial library: a failed compile leaves only its record
    assert [p.suffix for p in cache.glob("*")] == [".failed"] * (compiler == "failing")


def test_failed_build_is_recorded(tmp_path):
    """A compiler that fails runs once: later calls on the same cache raise
    the recorded reason, with the same warning; a changed compiler tries again."""
    cc = failing_compiler(tmp_path / "cc")
    build = partial(_clib.library.__wrapped__, str(cc), tmp_path / "cache")

    def calls():
        return len((tmp_path / "cc.log").read_text().splitlines())

    with pytest.warns(UserWarning, match="exit status 1"):
        assert build() is None
    with pytest.warns(UserWarning, match="exit status 1.*recorded in"):
        assert build() is None
    assert calls() == 1
    mtime = cc.stat().st_mtime_ns + 10**9  # a new compiler at the same path
    os.utime(cc, ns=(mtime, mtime))
    with pytest.warns(UserWarning, match="exit status 1"):
        assert build() is None
    assert calls() == 2


def test_fallback_warns_once_per_process(tmp_path):
    """With no compiler and an empty cache, a process warns once, however
    many fixed-point calls it makes, even where every warning is shown."""
    script = (
        "import warnings; warnings.simplefilter('always')\n"
        "import numpy as np\n"
        "from fastssc.compiler import build_tree, compile_tree\n"
        "from fastssc.engine import execute\n"
        "from fastssc.polar import construct_frozen_set, encode_systematic\n"
        "from fastssc.quantize import parse_quant, quantize_channel\n"
        "from fastssc.simulate import awgn_bpsk_llr\n"
        "prog = compile_tree(build_tree(construct_frozen_set(5, 20, 0.5), 64))\n"
        "for _ in range(3):\n"
        "    x = encode_systematic(np.zeros((2, 20), np.uint8), prog.spec)\n"
        "    llr = quantize_channel(awgn_bpsk_llr(x, 0.5, np.random.default_rng(0)), "
        "parse_quant('7:5:1'))\n"
        "    execute(prog, llr, quant=parse_quant('7:5:1'))\n"
    )
    src = os.path.dirname(os.path.dirname(engine.__file__))  # this fastssc, also in the child
    env = dict(os.environ, PATH=str(tmp_path), XDG_CACHE_HOME=str(tmp_path),
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stderr.count("UserWarning: fastssc: the compiled fixed-point interpreter is "
                            "unavailable (no C compiler 'cc' on PATH)") == 1
    assert run.stderr.count("Warning") == 1


def test_concurrent_calls_on_the_c_path():
    q = parse_quant("16:12:2")
    prog = compile_tree(build_tree(construct_frozen_set(11, 1200, 0.5), 64))
    rng = np.random.default_rng(23)
    inputs = [rng.integers(-q.channel_limit, q.channel_limit + 1, (128, 2048)).astype(np.int32)
              for _ in range(2)]
    serial = [numpy_execute(prog, x, q) for x in inputs]
    barrier = threading.Barrier(2, timeout=30)
    wrong = [0, 0]

    def worker(i):
        barrier.wait()
        for _ in range(30):
            wrong[i] += not np.array_equal(execute(prog, inputs[i], quant=q), serial[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == [0, 0]
