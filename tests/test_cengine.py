"""The compiled fixed-point interpreter against the numpy engine.

`engine.execute` decodes fixed-point frames in `_cengine.c` when the library
builds, and the numpy steps are its bit-exact reference.  The tests reach
the numpy path by making `engine._c_library` return None, which is also what
a missing compiler or a failed build gives, there with a UserWarning.
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

from fastssc import engine
from fastssc.compiler import build_tree, compile_tree, rules_from_names
from fastssc.engine import execute
from fastssc.polar import CodeSpec, bit_reverse_permutation, construct_frozen_set
from fastssc.quantize import parse_quant

SCHEMES = ["6:4:0", "7:5:1", "8:8:0", "16:12:2", "31:31:0"]  # int8, int8, int16, int16, int32
RULES = ["all", "ssc", "none", "spc,rep,rep-spc"]
BATCHES = (1, 3, 7, 128)


def numpy_execute(prog, x, q):
    with mock.patch.object(engine, "_c_library", lambda: None):
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
def test_c_equals_numpy(scheme):
    q = parse_quant(scheme)
    rng = np.random.default_rng(int(q.internal_limit % 1000))
    for n, spec in sweep_codes():
        for rules in RULES:
            prog = compile_tree(build_tree(spec, 64, rules_from_names(rules)))
            frames = np.concatenate(sweep_frames(n, q.channel_limit, rng)).astype(np.int32)
            want = numpy_execute(prog, frames, q)
            for part in range(3):
                x, ref = frames[128 * part:][:128], want[128 * part:][:128]
                for b in BATCHES:
                    assert np.array_equal(execute(prog, x[:b], quant=q), ref[:b]), (n, rules, b)
            assert np.array_equal(execute(prog, frames[5], quant=q), want[5])  # a single vector


def test_c_path_is_active_when_a_compiler_is_on_path(tmp_path):
    has_cc = shutil.which("cc") is not None
    assert (engine._c_library() is not None) == has_cc
    # a fresh cache holds exactly the library afterwards, under its keyed name
    lib = engine._c_library.__wrapped__("cc", tmp_path)
    assert (lib is not None) == has_cc
    names = [p.name for p in tmp_path.iterdir()]
    assert len(names) == has_cc and all(p.startswith("_cengine-") and p.endswith(".so")
                                        for p in names)


def failing_compiler(path):
    """A compiler that writes part of its output, then fails."""
    path.write_text(
        f"#!{sys.executable}\nimport sys\n"
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
    build = partial(engine._c_library.__wrapped__, str(cc), cache)
    with pytest.warns(UserWarning, match=reason):
        assert build() is None
    monkeypatch.setattr(engine, "_c_library", build)
    with pytest.warns(UserWarning, match="fixed point runs on the slower numpy steps"):
        assert np.array_equal(execute(prog, x, quant=q), want)
    assert not cache.exists() or not any(cache.iterdir())  # no partial library


def test_fallback_warns_once_per_process(tmp_path):
    """With no compiler and an empty cache, a process warns once, however
    many fixed-point calls it makes, even where every warning is shown."""
    script = (
        "import warnings; warnings.simplefilter('always')\n"
        "import numpy as np\n"
        "from fastssc.compiler import build_tree, compile_tree\n"
        "from fastssc.engine import execute\n"
        "from fastssc.polar import construct_frozen_set\n"
        "from fastssc.quantize import parse_quant\n"
        "prog = compile_tree(build_tree(construct_frozen_set(5, 20, 0.5), 64))\n"
        "for _ in range(3):\n"
        "    execute(prog, np.ones((2, 32), np.int32), quant=parse_quant('7:5:1'))\n"
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
