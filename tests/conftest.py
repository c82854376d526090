"""Shared fixtures: the compiled library's builds, one per ISA level."""

import shutil

import pytest

from fastssc import _clib


@pytest.fixture(scope="session")
def builds():
    """{level: loaded library} for every ISA level this machine can build and
    run: the baseline build, and the x86-64-v3 one where its probe passes.
    Empty without a C compiler.  Patching `_clib.library` to return one of
    them, or None for the numpy steps, is the test hook on the loader."""
    if shutil.which("cc") is None:
        return {}
    libs = {"baseline": _clib.variant("baseline")}
    if libs["baseline"].cpu_supports_x86_64_v3():
        libs["x86-64-v3"] = _clib.variant("x86-64-v3")
    return libs
