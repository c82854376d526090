"""Command-line front end.

Exit codes: 0 on success, 1 for usage problems, 2 for bad input data
(unreadable or malformed files, inconsistent parameters, engine errors).
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from .compiler import (
    NodeKind,
    NodeRuleSet,
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
from .polar import (
    construct_frozen_set,
    encode_systematic,
    extract_info,
    load_spec,
    spec_to_text,
)
from .quantize import parse_quant
from .reference import sc_decode
from .simulate import SimConfig, bench, ebno_to_sigma2, results_to_csv, run_simulation


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route usage problems to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _quant_arg(text):
    try:
        return parse_quant(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _rules_arg(text):
    try:
        return rules_from_names(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_spec_args(sp, with_mask=True):
    if with_mask:
        sp.add_argument("--mask", metavar="PATH", help="frozen-bit mask file")
    sp.add_argument("--n-bits", type=int, metavar="n", help="log2 of the code length")
    sp.add_argument("--k", type=int, metavar="K", help="number of information bits")
    sp.add_argument("--design-sigma2", type=float, metavar="S2",
                    help="construction noise variance")
    sp.add_argument("--design-ebno", type=float, metavar="DB",
                    help="construction Eb/N0 in dB (alternative to --design-sigma2)")


def _add_engine_args(sp):
    sp.add_argument("--p", type=int, default=256, metavar="P",
                    help="processing-element resource parameter (default 256)")
    sp.add_argument("--nodes", type=_rules_arg, default=NodeRuleSet(), metavar="SET",
                    help="node rules: all, none, ssc, or a comma list like spc,rep")


def _design_sigma2(args):
    if args.design_sigma2 is not None and args.design_ebno is not None:
        raise _UsageError("--design-sigma2 and --design-ebno are mutually exclusive")
    if args.design_sigma2 is not None:
        return args.design_sigma2
    if args.design_ebno is None:
        raise _UsageError("a design point is required: --design-sigma2 or --design-ebno")
    return ebno_to_sigma2(args.design_ebno, args.k / (1 << args.n_bits))


def _spec_from_args(args):
    if getattr(args, "mask", None) is not None:
        return load_spec(args.mask)
    if args.n_bits is None or args.k is None:
        raise _UsageError("provide --mask, or --n-bits and --k with a design point")
    return construct_frozen_set(args.n_bits, args.k, _design_sigma2(args))


def _parse_ebno_list(tokens):
    vals = []
    for tok in tokens:
        for part in tok.replace(",", " ").split():
            try:
                vals.append(float(part))
            except ValueError:
                raise _UsageError(f"bad Eb/N0 value: {part!r}")
    if not vals:
        raise _UsageError("empty --ebno list")
    return vals


def _load_program(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] == b"FSSC":
        return parse_program_binary(data)
    return parse_program(data.decode("utf-8"))


def _program_with_code(args):
    """The --program file, carrying the code of --mask or --n-bits when one is given."""
    program = _load_program(args.program)
    if args.mask is None and args.n_bits is None:
        return program
    spec = _spec_from_args(args)
    if (spec.N, spec.k) != (program.N, program.k):
        raise ValueError(f"mask ({spec.N},{spec.k}) does not match "
                         f"program ({program.N},{program.k})")
    return replace(program, spec=spec)


def _read_bits(path, width):
    """Read frames of contiguous 0/1 characters, one frame per line."""
    with open(path) as fh:
        text = fh.read()
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s:
            continue
        if len(s) != width or set(s) - {"0", "1"}:
            raise ValueError(f"{path}:{lineno}: expected {width} bits of 0/1")
        rows.append(np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0"))
    if not rows:
        raise ValueError(f"{path}: no frames found")
    return np.array(rows, dtype=np.uint8)


def _read_llrs(path, width, quant):
    """Read LLR frames, one whitespace-separated frame per line.

    Values must be integer literals when a quantization scheme is active.
    """
    with open(path) as fh:
        text = fh.read()
    rows = []
    cast = int if quant is not None else float
    for lineno, line in enumerate(text.splitlines(), 1):
        toks = line.split()
        if not toks:
            continue
        if len(toks) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} values, got {len(toks)}")
        try:
            rows.append([cast(t) for t in toks])
        except ValueError:
            kind = "integer" if quant is not None else "real"
            raise ValueError(f"{path}:{lineno}: {kind} LLR values required")
        if quant is not None and not -(1 << 31) <= min(rows[-1]) <= max(rows[-1]) < 1 << 31:
            raise ValueError(f"{path}:{lineno}: integer LLR values must fit in 32 bits")
    if not rows:
        raise ValueError(f"{path}: no frames found")
    dtype = np.int32 if quant is not None else np.float64
    return np.array(rows, dtype=dtype)


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _bits_to_text(arr):
    arr = np.atleast_2d(np.asarray(arr, dtype=np.uint8))
    lines = [(row + ord("0")).tobytes().decode("ascii") for row in arr]
    return "\n".join(lines) + "\n"


def _cmd_construct(args):
    spec = construct_frozen_set(args.n_bits, args.k, _design_sigma2(args))
    _write_text(args.output, spec_to_text(spec))


def _cmd_compile(args):
    spec = _spec_from_args(args)
    program = compile_tree(build_tree(spec, args.p, args.nodes))
    if args.binary:
        if args.output is None:
            raise _UsageError("--binary requires --output")
        with open(args.output, "wb") as fh:
            fh.write(serialize_program_binary(program))
    else:
        _write_text(args.output, serialize_program(program))


def _cmd_show_program(args):
    program = _load_program(args.program)
    sys.stdout.write(serialize_program(program))


def _cmd_stats(args):
    spec = _spec_from_args(args)
    tree = build_tree(spec, args.p, args.nodes)
    st = node_stats(tree)
    program = compile_tree(tree)
    print(f"N={spec.N} k={spec.k} P={args.p}")
    print(f"nodes: {st.total}")
    kinds = " ".join(f"{k.name}={st.kind_counts.get(k.value, 0)}" for k in NodeKind)
    print(f"  {kinds}")
    print("spc sizes (<=8, <=64, <=256, >256): " + " ".join(map(str, st.spc_bins)))
    print("rep sizes (<=8, <=16, >16): " + " ".join(map(str, st.rep_bins)))
    print(f"instructions: {len(program.instructions)}")
    print(f"latency: {estimate_latency(program)} cycles")


def _cmd_encode(args):
    spec = _spec_from_args(args)
    a = _read_bits(args.infile, spec.k)
    _write_text(args.outfile, _bits_to_text(encode_systematic(a, spec)))


def _cmd_decode(args):
    if args.algo == "sc":
        spec = _spec_from_args(args)
        llr = _read_llrs(args.infile, spec.N, args.quant)
        beta = sc_decode(llr, spec, args.quant)
    else:
        if args.program is None:
            raise _UsageError("--algo fast-ssc requires --program")
        program = _program_with_code(args)
        spec = program.spec
        llr = _read_llrs(args.infile, program.N, args.quant)
        beta = execute(program, llr, args.quant)
    if args.info:
        if spec is None:
            raise _UsageError("--info requires the code mask")
        beta = extract_info(beta, spec)
    _write_text(args.outfile, _bits_to_text(beta))


def _cmd_simulate(args):
    spec = _spec_from_args(args)
    config = SimConfig(
        spec=spec,
        ebno_db=_parse_ebno_list(args.ebno),
        p=args.p,
        rules=args.nodes,
        quant=args.quant,
        seed=args.seed,
        min_frame_errors=args.min_frame_errors,
        max_frames=args.max_frames,
        workers=args.workers,
        batch_size=args.batch_size,
    )
    results = run_simulation(config)
    print(f"{'EbN0':>6} {'sigma2':>11} {'frames':>9} {'bitErr':>9} {'frmErr':>7}"
          f" {'BER':>12} {'FER':>12} {'Mb/s':>9} {'cycles':>7}")
    for r in results:
        print(f"{r.ebno_db:>6.2f} {r.sigma2:>11.5g} {r.frames:>9} {r.bit_errors:>9}"
              f" {r.frame_errors:>7} {r.ber:>12.4e} {r.fer:>12.4e}"
              f" {r.info_throughput_bps / 1e6:>9.3f} {r.cycles_per_frame:>7}")
    if args.csv is not None:
        # wall-clock throughput is dropped so the file is run-to-run reproducible
        _write_text(args.csv, results_to_csv(results, include_throughput=False))


def _cmd_bench(args):
    if args.program is not None:
        program = _program_with_code(args)
        if program.spec is None:
            raise _UsageError("bench needs the code mask to generate frames")
    else:
        spec = _spec_from_args(args)
        program = compile_tree(build_tree(spec, args.p, args.nodes))
    rep = bench(program, args.frames, args.quant, args.ebno, args.seed,
                args.batch_size)
    print(f"frames: {rep['frames']}")
    print(f"elapsed: {rep['elapsed_s']:.4f} s")
    print(f"info throughput: {rep['info_bps'] / 1e6:.3f} Mb/s")
    print(f"cycles/frame: {rep['cycles_per_frame']}")


def _build_parser():
    parser = _Parser(prog="fastssc", description="Fast-SSC polar code toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("construct", help="build a code and write its mask file")
    _add_spec_args(sp, with_mask=False)
    sp.add_argument("--output", "-o", metavar="PATH", help="default: stdout")
    sp.set_defaults(func=_cmd_construct)

    sp = sub.add_parser("compile", help="compile a code into a decoder program")
    _add_spec_args(sp)
    _add_engine_args(sp)
    sp.add_argument("--output", "-o", metavar="PATH", help="default: stdout")
    sp.add_argument("--binary", action="store_true", help="write the packed format")
    sp.set_defaults(func=_cmd_compile)

    sp = sub.add_parser("show-program", help="print a program file as text")
    sp.add_argument("--program", required=True, metavar="PATH")
    sp.set_defaults(func=_cmd_show_program)

    sp = sub.add_parser("stats", help="node statistics and latency estimate")
    _add_spec_args(sp)
    _add_engine_args(sp)
    sp.set_defaults(func=_cmd_stats)

    sp = sub.add_parser("encode", help="systematically encode bit frames")
    _add_spec_args(sp)
    sp.add_argument("--in", dest="infile", required=True, metavar="PATH",
                    help="information bits, one frame of contiguous 0/1 per line")
    sp.add_argument("--out", dest="outfile", metavar="PATH", help="default: stdout")
    sp.set_defaults(func=_cmd_encode)

    sp = sub.add_parser("decode", help="decode LLR frames to codewords")
    sp.add_argument("--algo", choices=("sc", "fast-ssc"), default="fast-ssc")
    sp.add_argument("--program", metavar="PATH", help="compiled program (fast-ssc)")
    _add_spec_args(sp)
    sp.add_argument("--in", dest="infile", required=True, metavar="PATH",
                    help="one whitespace-separated LLR frame per line")
    sp.add_argument("--out", dest="outfile", metavar="PATH", help="default: stdout")
    sp.add_argument("--quant", type=_quant_arg, default=None, metavar="W:Wc:F")
    sp.add_argument("--info", action="store_true",
                    help="output information bits instead of the codeword")
    sp.set_defaults(func=_cmd_decode)

    sp = sub.add_parser("simulate", help="Monte-Carlo error-rate simulation")
    _add_spec_args(sp)
    _add_engine_args(sp)
    sp.add_argument("--quant", type=_quant_arg, default=None, metavar="W:Wc:F")
    sp.add_argument("--ebno", nargs="+", required=True, metavar="DB",
                    help="Eb/N0 points in dB, space or comma separated")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--min-frame-errors", type=int, default=100)
    sp.add_argument("--max-frames", type=int, default=10_000_000)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--batch-size", type=int, default=128)
    sp.add_argument("--csv", metavar="PATH", help="also write results as CSV")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("bench", help="decoding throughput measurement")
    sp.add_argument("--program", metavar="PATH", help="compiled program to run")
    _add_spec_args(sp)
    _add_engine_args(sp)
    sp.add_argument("--frames", type=int, default=1000)
    sp.add_argument("--quant", type=_quant_arg, default=None, metavar="W:Wc:F")
    sp.add_argument("--ebno", type=float, default=4.0, metavar="DB")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--batch-size", type=int, default=128)
    sp.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args) or 0
    except _UsageError as exc:
        print(f"fastssc: error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, EngineError) as exc:
        print(f"fastssc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
