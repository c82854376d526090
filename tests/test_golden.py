"""Golden outputs recorded from the original dict-based interpreter.

Criterion 9 only compares two runs of the same build, so it cannot see a
change in results.  These literals pin a seeded simulation sweep and the
engine's decisions on frames full of exact zeros (+0.0, -0.0 and integer 0,
where the >= 0 rule settles every tie) to what the code produced before the
engine was relinked over planned buffers.
"""

import numpy as np
import pytest

from fastssc import _clib
from fastssc.compiler import build_tree, compile_tree
from fastssc.engine import execute
from fastssc.polar import CodeSpec, construct_frozen_set
from fastssc.quantize import QuantScheme
from fastssc.simulate import SimConfig, ebno_to_sigma2, results_to_csv, run_simulation

SIM_CSV = {
    "float": (
        "ebno_db,sigma2,frames,bit_errors,frame_errors,ber,fer,cycles_per_frame\n"
        "2,0.6309573445,384,637,42,1.29597982e-02,1.09375000e-01,69\n"
        "3,0.5011872336,3456,453,41,1.02403429e-03,1.18634259e-02,69\n"
    ),
    "7:5:1": (
        "ebno_db,sigma2,frames,bit_errors,frame_errors,ber,fer,cycles_per_frame\n"
        "2,0.6309573445,384,695,45,1.41398112e-02,1.17187500e-01,69\n"
        "3,0.5011872336,3584,421,40,9.17707171e-04,1.11607143e-02,69\n"
    ),
}


@pytest.mark.parametrize("quant", ["float", "7:5:1"])
def test_simulation_csv_matches_recorded(quant, builds, monkeypatch):
    spec = construct_frozen_set(8, 128, ebno_to_sigma2(3.0, 0.5))
    config = SimConfig(
        spec=spec,
        ebno_db=(2.0, 3.0),
        quant=None if quant == "float" else QuantScheme(7, 5, 1),
        seed=7,
        min_frame_errors=40,
        max_frames=4096,
        batch_size=64,
    )
    csv = results_to_csv(run_simulation(config), include_throughput=False)
    assert csv == SIM_CSV[quant]
    # again on each compiled build, and on the numpy steps alone
    for lib in [*builds.values(), None]:
        monkeypatch.setattr(_clib, "library", lambda: lib)
        assert results_to_csv(run_simulation(config), include_throughput=False) == csv


# A (128, 54) mask, bit-reversed order, built so that the default rules emit
# 27 ML instructions; the (128, 52) GA code covers every other opcode but R1.
ML_MASK_HEX = "ffffffffffffffffa8808000a8808000"

# Per code: frames of the float set, then of the 6:4:1 set, as packed hex.
ZERO_TIE_OUTPUTS = {
    "ga": (
        [
            "00000000000000000000000000000000", "00000000000000000000000000000000",
            "ffff0fff0cfc3030cf3f30303333fff0", "0069aa336a306ac0596565560fff9999",
            "60ca60f95039aff56336c6a0acc5f6ac", "1de21212112dee2dee2db4777b7b2e2e",
            "f65c355c60caf9906f063560caa3ca60", "12e2ded12eed7b4712748b12842e7b2e",
            "965a55aa6a9a9a59aa0f33a5f395a60c", "471212b8471db81d8b2e47e21d48842e",
            "ccf0ccff3fc0cfc0559600ccf30ca959", "7ee724427e2bb218d4d4d42be72b8ebd",
        ],
        [
            "00000000000000000000000000000000", "8b7bd121d2d2b44b7b122e478811e187",
            "f09655cc306503a999aaccffc03f0303", "959acff3300330300c659530c095fc9a",
            "f3fc300330fc59563c5a66c35aff55cc", "3ffc659ac00cc030c3aa99cca5c35aff",
            "884411e177bb111e12d18b741d218484", "77788787eee1bbbb847b7b8b2e2e8b84",
            "7e81b2b224188e4d7e171781db8ed47e", "05f563a060acf609360a505fa3a3ca06",
            "ddee87784884b8b887447888b78be212", "506cc6c90a05af6c509c5050a0a0935f",
        ],
    ),
    "ml": (
        [
            "00000000000000000000000000000000", "00000000000000000000000000000000",
            "0f0f00f00fff00f00f0f00f00fff00f0", "006feb110f5cd1db006feb110f5cd1db",
            "60a3f6c5ac5cfc0c60a3f6c5ac5cfc0c", "ebe8bd72bb7b2e2debe8bd72bb7b2e2d",
            "a6ac35fc60cff390a6ac35fc60cff390", "14e7b8b48e8ddb8214e7b8b48e8ddb82",
            "718db1246930a699718db1246930a699", "99ee77661d5984a699ee77661d5984a6",
            "559600cc030ca959559600cc030ca959", "6e6ea252e37986b96e6ea252e37986b9",
        ],
        [
            "00000000000000000000000000000000", "eb423f65544ab6cdeb423f65544ab6cd",
            "0f9ac96f306903990f9ac96f30690399", "85dcdfe0e080c49885dcdfe0e080c498",
            "0a50c6c9c0f3c0590a50c6c9c0f3c059", "3fcca59aca5096303fcca59aca509630",
            "0c441ba3d7bb550a0c441ba3d7bb550a", "84bb7d8de4e7bbbb84bb7d8de4e7bbbb",
            "7e119096300adeeb7e119096300adeeb", "72280a5fd428ca3972280a5fd428ca39",
            "82441884696c309082441884696c3090", "3a9671d2b1b8955f3a9671d2b1b8955f",
        ],
    ),
}


def zero_tie_frames():
    """12 float and 12 integer frames of length 128, dense in exact zeros."""
    rng = np.random.default_rng(2024)
    x = rng.choice([-2.5, -1.0, -0.0, 0.0, 0.0, 0.75, 3.0], size=(12, 128))
    x[0] = 0.0
    x[1] = -0.0
    x[2, ::2] = -0.0
    xi = rng.choice([-7, -2, -1, 0, 0, 0, 1, 3, 7], size=(12, 128)).astype(np.int32)
    xi[0] = 0
    return x, xi


def golden_program(name):
    if name == "ga":
        spec = construct_frozen_set(7, 52, ebno_to_sigma2(3.0, 52 / 128))
    else:
        mask = np.unpackbits(np.frombuffer(bytes.fromhex(ML_MASK_HEX), np.uint8))
        spec = CodeSpec(frozen_mask=mask.astype(bool))
    return compile_tree(build_tree(spec, 16))


def packed_hex(beta):
    return [np.packbits(row).tobytes().hex() for row in beta]


@pytest.mark.parametrize("name", ["ga", "ml"])
def test_zero_llr_decisions_match_recorded(name, builds, monkeypatch):
    prog = golden_program(name)
    x, xi = zero_tie_frames()
    want_float, want_fixed = ZERO_TIE_OUTPUTS[name]
    assert packed_hex(execute(prog, x)) == want_float
    assert packed_hex(execute(prog, xi, quant=QuantScheme(6, 4, 1))) == want_fixed
    # on each compiled build, and on the numpy steps alone
    for lib in [*builds.values(), None]:
        monkeypatch.setattr(_clib, "library", lambda: lib)
        assert packed_hex(execute(prog, x)) == want_float
        assert packed_hex(execute(prog, xi, quant=QuantScheme(6, 4, 1))) == want_fixed
        # one frame at a time gives the same decisions as the batch
        assert packed_hex([execute(prog, row) for row in x[:4]]) == want_float[:4]
