"""The compiled batch steps, `_cengine.c`, built on first use and loaded through ctypes.

The first call of `library()` in a process (threads that race it wait for
that one call) compiles the source with the system C compiler (`cc -O3
-ffp-contract=off`, no -march=native) into the per-user cache directory
(~/.cache/fastssc, or $XDG_CACHE_HOME/fastssc; ~/Library/Caches/fastssc on
macOS) and loads it; later processes load the cached file.  The baseline
build comes first.  Where its `cpu_supports_x86_64_v3()` probe passes, an
`-march=x86-64-v3` build is made and loaded in its place.  Each file is
named by a key over the source, the flags (the ISA level's included) and
the machine type, so a cache shared between CPUs stays safe.

Where numpy ships numpy.random's static library, numpy/random/lib/
libnpyrandom.a, the build links it in and compiles the draws of a PCG64
Generator: the frame bits and the channel noise.  Both read the generator's
words from a buffer of 512 that four interleaved LCG chains fill.  The noise
runs numpy's ziggurat fast path on groups of four words (in AVX2 in the
x86-64-v3 build); a group keeps its values before its first miss, and the
missed value replays through numpy's own normal draw, which reads its
further words from the same buffer.  The key then covers numpy's version
and the archive's crc32 too.  On Linux the link adds -Wl,--exclude-libs,ALL, so
the library exports none of the archive's functions.  Each loaded build
runs a self-test against numpy's draws; with no archive, or a failed
self-test, its `awgn` and `bits` are None and `draw_error` says why, and
`library()` warns once that numpy draws the bits and the noise, and forms
the LLRs, with the same results.

Entries allocate their own scratch memory; where that fails, a decode or
`encode` returns -1 and its caller raises MemoryError.  With no compiler,
or a failed build, `library()` is None, the process warns once, and every
caller (the fixed-point decoder, the float decoder's F, G, REP and
decision gather, the systematic encoder, the AWGN channel and the
quantizer) runs its numpy steps, with the same results.
Callers look `library` up on this module at each call, so patching it is
the one switch: tests make it return None for the numpy steps, or one ISA
level's `variant`.
"""

import ctypes
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import warnings
import zlib
from functools import cache, wraps
from pathlib import Path

import numpy as np

# No -march=native: the cache directory may be shared with another CPU.  No
# FMA contraction: the channel must round as numpy's separate passes do.
_CFLAGS = ("-std=c99", "-O3", "-ffp-contract=off", "-shared", "-fPIC")
LEVELS = {"baseline": (), "x86-64-v3": ("-march=x86-64-v3",)}

_P, _I = ctypes.c_void_p, ctypes.c_int64
_DECODE = [_P, _I, _P] + [_I] * 4 + [_P] * 2
_SIGNATURES = {
    "decode_int8_t": (_DECODE, _I),
    "decode_int16_t": (_DECODE, _I),
    "decode_int32_t": (_DECODE, _I),
    "f_rows": ([_P, _P, _I, _I], None),
    "g_rows": ([_P, _P, _P, _I, _I, _I], None),
    "f_root": ([_P, _P, _P, _I, _I, ctypes.c_double], _I),
    "g_root": ([_P, _P, _P, _P, _I, _I, ctypes.c_double], _I),
    "rep_rows": ([_P, _P, _I, _I, _I], None),
    "gather_uint8_t": ([_P, _P, _P, _I, _I], None),
    "cpu_supports_x86_64_v3": ([], _I),
    "encode": ([_P, _P, _I, _I, _P], _I),
    "quantize": ([_P, _P, _I, ctypes.c_double, ctypes.c_double], _I),
}
# entries compiled in with numpy.random's static library, libnpyrandom.a
_DRAWS = {
    "normal_tables": ([], None),
    "awgn": ([_P, _P, _P, _I, ctypes.c_double, ctypes.c_double], None),
    "bits": ([_P, _P, _I], None),
}
_FAILURES = (OSError, RuntimeError, subprocess.SubprocessError)
_M64 = (1 << 64) - 1
# its 4097 normals after 4097 bits hold 4 tail values, |z| > 3.654, read more
# than one buffer of words, and miss the fast path at each lane of a group
_SELF_TEST_SEED = 19


def _once(fn):
    """functools.cache under a lock: concurrent first calls run fn once, so
    threads that race the first `library()` build once and warn once."""
    cached, lock = cache(fn), threading.Lock()

    @wraps(fn)
    def call(*args, **kwargs):
        with lock:
            return cached(*args, **kwargs)
    return call


@_once
def library(cc="cc", cache_dir=None):
    """The fastest loadable build, or None, with a UserWarning that names the
    reason, when none can be built or loaded.  cc and cache_dir let tests
    build with another compiler into another directory."""
    try:
        lib = variant("baseline", cc, cache_dir)
    except _FAILURES as exc:
        # not a RuntimeWarning: where those are errors, the fallback must still run
        warnings.warn(f"fastssc: the compiled library is unavailable ({exc}); fixed point "
                      "runs on the slower numpy steps, and so do float F, G, REP and the "
                      "decision gather, the systematic encoder, the AWGN channel and the "
                      "quantizer", UserWarning, stacklevel=4)
        return None
    if lib.cpu_supports_x86_64_v3():
        try:
            lib = variant("x86-64-v3", cc, cache_dir)
        except _FAILURES as exc:
            warnings.warn(f"fastssc: the x86-64-v3 build is unavailable ({exc}); "
                          "the baseline build runs", UserWarning, stacklevel=4)
    if lib.draw_error:
        warnings.warn(f"fastssc: the compiled noise draw is unavailable ({lib.draw_error}); "
                      "numpy draws the frame bits and the channel noise", UserWarning,
                      stacklevel=4)
    return lib


def variant(level, cc="cc", cache_dir=None):
    """The build of one ISA level in LEVELS, loaded; raises OSError,
    RuntimeError or SubprocessError when it cannot be built or loaded.

    The compiler writes a temporary file that is then renamed into place,
    so concurrent processes never load a partial library.  A compile that
    fails leaves a record keyed by the library's name and the compiler's
    resolved path and mtime; later calls raise its reason without running
    that compiler again, and a changed compiler tries again.
    """
    source = Path(__file__).with_name("_cengine.c")
    flags, link = _CFLAGS + LEVELS[level], ()
    keyed = [source.read_bytes(), platform.machine().encode()]
    archive = _numpy_random_archive()
    if archive is not None:  # linked in whole, so its bytes and numpy's version are keyed
        flags, link = flags + ("-DFASTSSC_NUMPY_RANDOM",), (str(archive), "-lm")
        if sys.platform.startswith("linux"):  # export none of the archive's own functions
            flags += ("-Wl,--exclude-libs,ALL",)
        keyed += [np.__version__.encode(), b"%08x" % zlib.crc32(archive.read_bytes())]
    # crc32, not hashlib: importing hashlib alone costs ~3.5 MB of RSS
    key = zlib.crc32(b" ".join([*keyed, *map(str.encode, flags)]))
    lib = Path(cache_dir or _user_cache_dir()) / f"_cengine-{level}-{key:08x}.so"
    if not lib.exists():
        compiler = shutil.which(cc)
        if compiler is None:
            raise OSError(f"no C compiler {cc!r} on PATH")
        real = os.path.realpath(compiler)
        stamp = zlib.crc32(f"{real} {os.stat(real).st_mtime_ns}".encode())
        failed = lib.with_name(f"{lib.stem}-{stamp:08x}.failed")
        if failed.exists():
            raise RuntimeError(f"{failed.read_text()} (recorded in {failed})")
        lib.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(".so", ".build-", lib.parent)
        os.close(fd)
        try:
            subprocess.run([compiler, *flags, "-o", tmp, str(source), *link],
                           check=True, capture_output=True, timeout=600)
            os.replace(tmp, lib)
        except subprocess.CalledProcessError as exc:
            if exc.returncode > 0:  # an exit, not a kill that may not recur
                Path(tmp).write_text(str(exc))
                os.replace(tmp, failed)
            raise
        finally:
            Path(tmp).unlink(missing_ok=True)
    dll = ctypes.CDLL(str(lib))
    for name, (args, res) in (_SIGNATURES | (_DRAWS if archive else {})).items():
        fn = getattr(dll, name)
        fn.argtypes, fn.restype = args, res
    if archive is None:
        dll.draw_error = "numpy.random's libnpyrandom.a was not found"
    else:
        dll.normal_tables()
        dll.draw_error = _self_test(dll)
    if dll.draw_error:
        dll.awgn = dll.bits = None
    return dll


def _numpy_random_archive():
    """numpy.random's static library of distributions, or None where this numpy has none."""
    path = Path(np.random.__file__).with_name("lib") / "libnpyrandom.a"
    return path if path.is_file() else None


def pcg64_call(entry, rng, *args):
    """entry(state words, *args) on the PCG64 state of rng, a Generator, under
    its lock.  The state moves through the public `state` property."""
    bit_generator = rng.bit_generator
    with bit_generator.lock:
        state = bit_generator.state
        s, inc = state["state"]["state"], state["state"]["inc"]
        words = (ctypes.c_uint64 * 6)(s >> 64, s & _M64, inc >> 64, inc & _M64,
                                      state["has_uint32"], state["uinteger"])
        entry(words, *args)
        state["state"]["state"] = words[0] << 64 | words[1]
        state["has_uint32"], state["uinteger"] = words[4], words[5]
        bit_generator.state = state


def _self_test(dll):
    """None where the library's draws equal numpy's, bit for bit, else what differs.

    Bits, whose last uint32 leaves its high half buffered, then the channel
    LLRs of 4097 normals, against Generator(PCG64(seed)) and numpy's four
    passes of `simulate.awgn_bpsk_llr`."""
    want_rng, got_rng = (np.random.Generator(np.random.PCG64(_SELF_TEST_SEED)) for _ in "ab")
    n, sigma = 4097, 0.75
    want_x, got_x = want_rng.integers(0, 2, n, dtype=np.uint8), np.empty(n, np.uint8)
    pcg64_call(dll.bits, got_rng, got_x.ctypes.data, n)
    want, got = want_rng.standard_normal(n), np.empty(n)
    # each operation rounds as its in-place pass in awgn_bpsk_llr's numpy steps does
    want = (want * sigma + (1 - 2 * want_x.view(np.int8))) * 2.0 / (sigma * sigma)
    pcg64_call(dll.awgn, got_rng, got_x.ctypes.data, got.ctypes.data, n, sigma, sigma * sigma)
    if not np.array_equal(got_x, want_x) or not np.array_equal(got.view(np.int64),
                                                                 want.view(np.int64)):
        return "its self-test drew other values than numpy"
    if got_rng.bit_generator.state != want_rng.bit_generator.state:
        return "its self-test left another generator state than numpy"
    return None


def _user_cache_dir():
    """fastssc's directory in the platform's per-user cache."""
    if sys.platform == "darwin":
        return Path.home() / "Library" / "Caches" / "fastssc"
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "fastssc"
