import numpy as np
import pytest

from fastssc.cli import main
from fastssc.compiler import build_tree, compile_tree, parse_program, serialize_program
from fastssc.polar import construct_frozen_set, encode_systematic, load_spec, spec_from_text
from fastssc.simulate import ebno_to_sigma2


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def write_lines(path, rows):
    path.write_text("\n".join(rows) + "\n")


def bits_text(arr):
    return ["".join(str(b) for b in row) for row in np.atleast_2d(arr)]


def llr_text(x, scale=4.0):
    return [" ".join(f"{scale * (1 - 2 * int(b)):.1f}" for b in row) for row in np.atleast_2d(x)]


def test_construct_stdout(capsys):
    rc, out, _ = run_cli(capsys, "construct", "--n-bits", "3", "--k", "5",
                         "--design-sigma2", "0.5")
    assert rc == 0
    spec = spec_from_text(out)
    want = construct_frozen_set(3, 5, 0.5)
    assert np.array_equal(spec.frozen_mask, want.frozen_mask)


def test_construct_file_and_design_ebno(tmp_path, capsys):
    mask = tmp_path / "mask.txt"
    rc, _, _ = run_cli(capsys, "construct", "--n-bits", "5", "--k", "16",
                       "--design-ebno", "2.0", "-o", str(mask))
    assert rc == 0
    spec = load_spec(str(mask))
    want = construct_frozen_set(5, 16, ebno_to_sigma2(2.0, 0.5))
    assert np.array_equal(spec.frozen_mask, want.frozen_mask)


def test_construct_design_point_usage(capsys):
    rc, _, err = run_cli(capsys, "construct", "--n-bits", "3", "--k", "5")
    assert rc == 1
    assert "design point" in err
    rc, _, err = run_cli(capsys, "construct", "--n-bits", "3", "--k", "5",
                         "--design-sigma2", "0.5", "--design-ebno", "2.0")
    assert rc == 1
    assert "mutually exclusive" in err


def test_compile_and_show_program(tmp_path, capsys):
    mask = tmp_path / "mask.txt"
    prog_path = tmp_path / "prog.txt"
    run_cli(capsys, "construct", "--n-bits", "5", "--k", "12",
            "--design-sigma2", "0.5", "-o", str(mask))
    rc, _, _ = run_cli(capsys, "compile", "--mask", str(mask), "--p", "32",
                       "-o", str(prog_path))
    assert rc == 0
    want = compile_tree(build_tree(load_spec(str(mask)), 32))
    got = parse_program(prog_path.read_text())
    assert got.instructions == want.instructions
    assert (got.n_bits, got.k, got.p) == (want.n_bits, want.k, want.p)

    rc, out, _ = run_cli(capsys, "show-program", "--program", str(prog_path))
    assert rc == 0
    assert out == serialize_program(want)


def test_compile_binary(tmp_path, capsys):
    mask = tmp_path / "mask.txt"
    bin_path = tmp_path / "prog.bin"
    run_cli(capsys, "construct", "--n-bits", "4", "--k", "8",
            "--design-sigma2", "0.5", "-o", str(mask))
    rc, _, _ = run_cli(capsys, "compile", "--mask", str(mask), "--p", "16",
                       "--binary", "-o", str(bin_path))
    assert rc == 0
    assert bin_path.read_bytes()[:4] == b"FSSC"
    want = compile_tree(build_tree(load_spec(str(mask)), 16))
    rc, out, _ = run_cli(capsys, "show-program", "--program", str(bin_path))
    assert rc == 0
    assert out == serialize_program(want)

    rc, _, err = run_cli(capsys, "compile", "--mask", str(mask), "--binary")
    assert rc == 1
    assert "--output" in err


def test_stats_output(capsys):
    rc, out, _ = run_cli(capsys, "stats", "--n-bits", "3", "--k", "5",
                         "--design-sigma2", "0.5", "--p", "32")
    assert rc == 0
    assert "N=8 k=5 P=32" in out
    assert "nodes: 3" in out
    assert "REP=1" in out and "RATE1=1" in out and "RATER=1" in out
    assert "instructions: 3" in out
    assert "latency: 3 cycles" in out


def test_encode_decode_roundtrip(tmp_path, capsys):
    spec = construct_frozen_set(5, 12, 0.5)
    mask = tmp_path / "mask.txt"
    prog_path = tmp_path / "prog.txt"
    run_cli(capsys, "construct", "--n-bits", "5", "--k", "12",
            "--design-sigma2", "0.5", "-o", str(mask))
    run_cli(capsys, "compile", "--mask", str(mask), "--p", "16", "-o", str(prog_path))

    rng = np.random.default_rng(4)
    a = rng.integers(0, 2, size=(5, 12), dtype=np.uint8)
    infile = tmp_path / "info.txt"
    write_lines(infile, bits_text(a))
    coded = tmp_path / "coded.txt"
    rc, _, _ = run_cli(capsys, "encode", "--mask", str(mask),
                       "--in", str(infile), "--out", str(coded))
    assert rc == 0
    x = encode_systematic(a, spec)
    assert coded.read_text() == "\n".join(bits_text(x)) + "\n"

    llrs = tmp_path / "llr.txt"
    write_lines(llrs, llr_text(x))
    decoded = tmp_path / "dec.txt"
    rc, _, _ = run_cli(capsys, "decode", "--program", str(prog_path),
                       "--mask", str(mask), "--in", str(llrs),
                       "--out", str(decoded), "--info")
    assert rc == 0
    assert decoded.read_text() == "\n".join(bits_text(a)) + "\n"

    rc, out, _ = run_cli(capsys, "decode", "--algo", "sc", "--mask", str(mask),
                         "--in", str(llrs))
    assert rc == 0
    assert out == "\n".join(bits_text(x)) + "\n"


def test_encode_rejects_mask_not_downward_closed(tmp_path, capsys):
    # 3 = 0b011 is frozen but its submasks 1 and 2 are not
    mask = tmp_path / "odd.txt"
    mask.write_text("N=8\nk=6\n0 3\n")
    infile = tmp_path / "info.txt"
    write_lines(infile, ["111111"])
    rc, out, err = run_cli(capsys, "encode", "--mask", str(mask), "--in", str(infile))
    assert rc == 2
    assert out == ""
    assert "downward closed" in err
    # decoding such a mask stays allowed
    llrs = tmp_path / "llr.txt"
    write_lines(llrs, ["1.0 -2.0 3.0 0.5 -1.5 2.0 1.0 -0.5"])
    rc, out, _ = run_cli(capsys, "decode", "--algo", "sc", "--mask", str(mask), "--in", str(llrs))
    assert rc == 0
    assert len(out.split()) == 1


def test_decode_quantized(tmp_path, capsys):
    mask = tmp_path / "mask.txt"
    prog_path = tmp_path / "prog.txt"
    run_cli(capsys, "construct", "--n-bits", "4", "--k", "10",
            "--design-sigma2", "0.5", "-o", str(mask))
    run_cli(capsys, "compile", "--mask", str(mask), "--p", "16", "-o", str(prog_path))
    spec = load_spec(str(mask))
    a = np.random.default_rng(8).integers(0, 2, size=(3, 10), dtype=np.uint8)
    x = encode_systematic(a, spec)

    llrs = tmp_path / "llr_int.txt"
    write_lines(llrs, [" ".join(str(8 * (1 - 2 * int(b))) for b in row) for row in x])
    rc, out, _ = run_cli(capsys, "decode", "--program", str(prog_path),
                         "--quant", "7:5:1", "--in", str(llrs))
    assert rc == 0
    assert out == "\n".join(bits_text(x)) + "\n"

    floats = tmp_path / "llr_float.txt"
    write_lines(floats, llr_text(x))
    rc, _, err = run_cli(capsys, "decode", "--program", str(prog_path),
                         "--quant", "7:5:1", "--in", str(floats))
    assert rc == 2
    assert "integer LLR values required" in err


def test_decode_quantized_rejects_nan(tmp_path, capsys):
    mask = tmp_path / "mask.txt"
    prog_path = tmp_path / "prog.txt"
    run_cli(capsys, "construct", "--n-bits", "3", "--k", "5",
            "--design-sigma2", "0.5", "-o", str(mask))
    run_cli(capsys, "compile", "--mask", str(mask), "--p", "8", "-o", str(prog_path))
    llrs = tmp_path / "llr.txt"
    write_lines(llrs, ["3 -3 3 3 3 3 3 3", "3 nan 3 3 3 3 3 3"])
    for algo in (["--program", str(prog_path)], ["--algo", "sc", "--mask", str(mask)]):
        rc, out, err = run_cli(capsys, "decode", *algo, "--quant", "7:5:1", "--in", str(llrs))
        assert rc == 2
        assert "llr.txt:2: integer LLR values required" in err
        assert "channel range" not in err
        assert out == ""


def test_decode_rejects_non_finite_llrs(tmp_path, capsys):
    mask = tmp_path / "mask.txt"
    prog_path = tmp_path / "prog.txt"
    run_cli(capsys, "construct", "--n-bits", "3", "--k", "5",
            "--design-sigma2", "0.5", "-o", str(mask))
    run_cli(capsys, "compile", "--mask", str(mask), "--p", "8", "-o", str(prog_path))
    for bad in ("nan", "inf", "-inf"):
        llrs = tmp_path / "llr.txt"
        write_lines(llrs, ["1.0 -1.0 1.0 1.0 1.0 1.0 1.0 1.0",
                           f"1.0 {bad} 1.0 1.0 1.0 1.0 1.0 1.0"])
        rc, out, err = run_cli(capsys, "decode", "--program", str(prog_path),
                               "--in", str(llrs))
        assert rc == 2
        assert "finite" in err
        assert out == ""


def test_decode_usage_errors(tmp_path, capsys):
    llrs = tmp_path / "llr.txt"
    write_lines(llrs, ["1.0 -1.0 1.0 1.0 1.0 1.0 1.0 1.0"])
    rc, _, err = run_cli(capsys, "decode", "--in", str(llrs))
    assert rc == 1
    assert "--program" in err

    mask = tmp_path / "mask.txt"
    prog_path = tmp_path / "prog.txt"
    run_cli(capsys, "construct", "--n-bits", "3", "--k", "5",
            "--design-sigma2", "0.5", "-o", str(mask))
    run_cli(capsys, "compile", "--mask", str(mask), "--p", "8", "-o", str(prog_path))

    # the program carries its code, so --info needs no mask
    rc, alone, _ = run_cli(capsys, "decode", "--program", str(prog_path),
                           "--in", str(llrs), "--info")
    assert rc == 0
    rc, with_mask, _ = run_cli(capsys, "decode", "--program", str(prog_path),
                               "--mask", str(mask), "--in", str(llrs), "--info")
    assert rc == 0
    assert alone == with_mask and len(alone.strip()) == 5

    other = tmp_path / "other.txt"
    run_cli(capsys, "construct", "--n-bits", "3", "--k", "4",
            "--design-sigma2", "0.5", "-o", str(other))
    rc, _, err = run_cli(capsys, "decode", "--program", str(prog_path),
                         "--mask", str(other), "--in", str(llrs))
    assert rc == 2
    assert "is not the frozen set of program" in err


def test_program_rejects_a_mask_of_the_same_size_from_another_design(tmp_path, capsys):
    four, one = tmp_path / "4db.txt", tmp_path / "1db.txt"
    for path, ebno in ((four, "4"), (one, "1")):
        run_cli(capsys, "construct", "--n-bits", "10", "--k", "512",
                "--design-ebno", ebno, "-o", str(path))
    assert (load_spec(four).frozen_mask != load_spec(one).frozen_mask).sum() == 32
    prog_path = tmp_path / "prog.bin"
    run_cli(capsys, "compile", "--mask", str(four), "--binary", "-o", str(prog_path))
    llrs = tmp_path / "llr.txt"
    write_lines(llrs, [" ".join(["4.0"] * 1024)])
    for argv in (("decode", "--in", str(llrs)), ("decode", "--in", str(llrs), "--info"),
                 ("bench", "--frames", "1")):
        rc, out, err = run_cli(capsys, *argv, "--program", str(prog_path), "--mask", str(one))
        assert rc == 2
        assert out == ""
        assert err == ("fastssc: error: mask (1024,512) is not the frozen set of "
                       "program (1024,512)\n")
        rc, _, _ = run_cli(capsys, *argv, "--program", str(prog_path), "--mask", str(four))
        assert rc == 0


def test_program_whose_header_k_disagrees_exits_2(tmp_path, capsys):
    prog_path = tmp_path / "prog.txt"
    prog_path.write_text("N=8 k=3 P=256\nREP-SPC L stage=3\n")
    llrs = tmp_path / "llr.txt"
    write_lines(llrs, ["1.0 -1.0 1.0 1.0 1.0 1.0 1.0 1.0"])
    for argv in (("show-program",), ("decode", "--in", str(llrs))):
        rc, out, err = run_cli(capsys, *argv, "--program", str(prog_path))
        assert rc == 2
        assert out == ""
        assert err == ("fastssc: error: line 1: header k=3, but the instructions decide "
                       "4 information bits\n")


def test_bad_input_files(tmp_path, capsys):
    mask = tmp_path / "mask.txt"
    run_cli(capsys, "construct", "--n-bits", "3", "--k", "5",
            "--design-sigma2", "0.5", "-o", str(mask))

    rc, _, err = run_cli(capsys, "encode", "--mask", str(mask),
                         "--in", str(tmp_path / "missing.txt"))
    assert rc == 2

    bad = tmp_path / "bad.txt"
    bad.write_text("01x01\n")
    rc, _, err = run_cli(capsys, "encode", "--mask", str(mask), "--in", str(bad))
    assert rc == 2
    assert "expected 5 bits" in err

    trunc = tmp_path / "trunc.bin"
    trunc.write_bytes(b"FSSC\x01\x03")
    rc, _, err = run_cli(capsys, "show-program", "--program", str(trunc))
    assert rc == 2

    # LLR files that the SC reference rejects as the compiled engine does
    prog = tmp_path / "prog.txt"
    run_cli(capsys, "compile", "--mask", str(mask), "-o", str(prog))
    llrs = tmp_path / "llr.txt"
    for line, quant, msg in [
        ("nan 1 1 1 1 1 1 1", [], "channel LLRs must be finite (found NaN or infinity)"),
        ("1000 1 1 1 1 1 1 1", ["--quant", "7:5:1"], "channel LLRs exceed the +-15 channel range"),
        ("1 1 99999999999 1 1 1 1 1", ["--quant", "7:5:1"],
         f"{llrs}:2: integer LLR values must fit in 32 bits"),
    ]:
        write_lines(llrs, ["1 1 1 1 1 1 1 1", line])
        for algo in (["--algo", "sc", "--mask", str(mask)], ["--program", str(prog)]):
            rc, out, err = run_cli(capsys, "decode", *algo, *quant, "--in", str(llrs))
            assert (rc, out, err) == (2, "", f"fastssc: error: {msg}\n"), algo


def test_bad_flags_exit_1(capsys):
    with pytest.raises(SystemExit) as e:
        main(["simulate", "--nonsense"])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["decode", "--quant", "9,9,9", "--in", "x"])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["compile", "--n-bits", "3", "--k", "5", "--design-sigma2", "0.5",
              "--nodes", "turbo"])
    assert e.value.code == 1
    capsys.readouterr()


def test_simulate_table_and_csv(tmp_path, capsys):
    csv1 = tmp_path / "a.csv"
    csv2 = tmp_path / "b.csv"
    argv = ["simulate", "--n-bits", "6", "--k", "32", "--design-sigma2", "0.5",
            "--p", "32", "--ebno", "2,4", "--seed", "3", "--min-frame-errors", "5",
            "--max-frames", "2048", "--batch-size", "64"]
    rc, out, _ = run_cli(capsys, *argv, "--csv", str(csv1))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split() == ["EbN0", "sigma2", "frames", "bitErr", "frmErr",
                                "BER", "FER", "Mb/s", "cycles"]
    assert len(lines) == 3
    assert lines[1].split()[0] == "2.00"

    rc, _, _ = run_cli(capsys, *argv, "--csv", str(csv2))
    assert rc == 0
    assert csv1.read_bytes() == csv2.read_bytes()
    header = csv1.read_text().splitlines()[0]
    assert "info_throughput_bps" not in header
    assert header.startswith("ebno_db,sigma2,frames")


def test_bench_cli(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "bench", "--n-bits", "6", "--k", "32",
                         "--design-sigma2", "0.5", "--p", "32", "--frames", "64")
    assert rc == 0
    assert "frames: 64" in out
    assert "cycles/frame:" in out

    mask = tmp_path / "mask.txt"
    prog_path = tmp_path / "prog.txt"
    run_cli(capsys, "construct", "--n-bits", "6", "--k", "32",
            "--design-sigma2", "0.5", "-o", str(mask))
    run_cli(capsys, "compile", "--mask", str(mask), "--p", "32", "-o", str(prog_path))
    # the program carries its code: frames are generated from it alone
    rc, out, _ = run_cli(capsys, "bench", "--program", str(prog_path), "--frames", "32")
    assert rc == 0
    assert "frames: 32" in out
    rc, out, _ = run_cli(capsys, "bench", "--program", str(prog_path),
                         "--mask", str(mask), "--frames", "32")
    assert rc == 0
    assert "frames: 32" in out
    # a code of another (N, k) cannot generate frames for this program
    rc, out, err = run_cli(capsys, "bench", "--program", str(prog_path), "--n-bits", "6",
                           "--k", "20", "--design-sigma2", "0.5", "--frames", "16")
    assert rc == 2
    assert out == ""
    assert err == "fastssc: error: mask (64,20) is not the frozen set of program (64,32)\n"


@pytest.mark.parametrize("flag, value", [
    ("--frames", "-5"), ("--batch-size", "0"), ("--batch-size", "-3"),
])
def test_bench_cli_rejects_bad_sizes(capsys, flag, value):
    rc, out, err = run_cli(capsys, "bench", "--n-bits", "5", "--k", "16",
                           "--design-sigma2", "0.5", "--frames", "10", flag, value)
    assert rc == 2
    assert out == ""
    assert err == "fastssc: error: frames must be >= 0 and batch_size >= 1\n"


@pytest.mark.parametrize("argv", [
    ("simulate", "--n-bits", "5", "--k", "16", "--design-sigma2", "0.5", "--ebno=-inf"),
    ("simulate", "--n-bits", "5", "--k", "16", "--design-sigma2", "0.5", "--ebno", "4000"),
    ("simulate", "--n-bits", "5", "--k", "16", "--design-sigma2", "0.5", "--ebno", "2",
     "--workers", "0"),
    ("simulate", "--n-bits", "5", "--k", "16", "--design-sigma2", "0.5", "--ebno", "2",
     "--workers", "-1"),
    ("construct", "--n-bits", "5", "--k", "16", "--design-ebno", "4000"),
    ("construct", "--n-bits", "5", "--k", "16", "--design-sigma2", "inf"),
    # a subnormal noise variance, whose LLR scale 2/sigma^2 overflows
    ("simulate", "--n-bits", "5", "--k", "16", "--design-sigma2", "0.5", "--ebno", "3080"),
    ("simulate", "--n-bits", "5", "--k", "16", "--design-sigma2", "0.5", "--ebno", "3080",
     "--quant", "7:5:1"),
])
def test_bad_noise_and_worker_values_exit_2(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("fastssc: error: ")
    assert len(err.splitlines()) == 1
