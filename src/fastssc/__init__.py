"""Fast-SSC polar code library: construction, encoding, compiled decoding,
fixed-point quantization, and an AWGN simulation harness."""

from .compiler import (
    CompileError,
    DecoderTree,
    Instruction,
    Node,
    NodeKind,
    NodeRuleSet,
    NodeStats,
    Opcode,
    Program,
    ProgramFormatError,
    build_tree,
    compile_tree,
    estimate_latency,
    node_stats,
    parse_program,
    parse_program_binary,
    rules_from_names,
    serialize_program,
    serialize_program_binary,
)
from .engine import EngineError, execute
from .kernels import (
    ML4_CODEWORDS,
    combine_op,
    decode_ml4,
    decode_rep,
    decode_rep_spc,
    decode_spc,
    f_op,
    g_op,
    hd_op,
)
from .polar import (
    CodeSpec,
    MaskFileError,
    bit_reverse,
    bit_reverse_permutation,
    construct_frozen_set,
    encode_polar,
    encode_systematic,
    extract_info,
    load_spec,
    save_spec,
    spec_from_text,
    spec_to_text,
)
from .quantize import QuantScheme, parse_quant, quantize_channel
from .reference import sc_decode
from .simulate import (
    SimConfig,
    SimResult,
    awgn_bpsk_llr,
    bench,
    ebno_to_sigma2,
    results_to_csv,
    run_simulation,
)

__version__ = "0.1.0"
