"""The mask and binary program codecs against big-integer reference codecs.

The reference functions below move one bit, or one 5-bit field, at a time
through a Python integer, the plainest statement of each format; the
library packs and unpacks whole arrays with numpy, and must give the same
bytes and the same errors.
"""

import re
import struct
import zlib

import numpy as np
import pytest

from fastssc import polar
from fastssc.compiler import (
    ProgramFormatError,
    build_tree,
    compile_tree,
    parse_program_binary,
    rules_from_names,
    serialize_program_binary,
)
from fastssc.polar import CodeSpec, MaskFileError, construct_frozen_set, spec_from_text, spec_to_text
from fastssc.simulate import ebno_to_sigma2


def ref_mask_to_hex(mask):
    """The hex mask line: the most significant nibble holds the lowest indices."""
    width = (mask.size + 3) // 4
    v = 0
    for j in np.flatnonzero(mask):
        v |= 1 << (4 * width - 1 - int(j))
    return format(v, f"0{width}x")


def ref_hex_to_mask(token, N):
    """The mask of a hex line, or MaskFileError where a padding bit is set."""
    v, bits = int(token, 16), 4 * len(token)
    mask = np.zeros(N, dtype=bool)
    for j in range(bits):
        if (v >> (bits - 1 - j)) & 1:
            if j >= N:
                raise MaskFileError("padding bits must be zero")
            mask[j] = True
    return mask


def ref_program_binary(n_bits, k, p, fields):
    """The binary program form of raw 5-bit field values (opcode | side << 4):
    the header, then the fields, LSB-first."""
    acc = 0
    for i, v in enumerate(fields):
        acc |= v << (5 * i)
    head = b"FSSC" + bytes([1, n_bits]) + struct.pack("<III", k, p, len(fields))
    return head + acc.to_bytes((5 * len(fields) + 7) // 8, "little")


def fields_of(program):
    return [int(i.op) | i.right << 4 for i in program.instructions]


def ref_program_fields(body, count):
    """The (opcode value, side) of each of count fields of a binary body."""
    acc = int.from_bytes(body, "little")
    return [((acc >> (5 * i)) & 15, bool((acc >> (5 * i + 4)) & 1)) for i in range(count)]


def random_masks(seed=0, per_n=30):
    """per_n random masks at each n = 1..12, of every density, the
    all-frozen and all-information masks among them."""
    rng = np.random.default_rng(seed)
    for n in range(1, 13):
        N = 1 << n
        yield np.ones(N, bool)
        yield np.zeros(N, bool)
        for _ in range(per_n - 2):
            yield rng.random(N) < rng.random()


def test_mask_lines_equal_the_reference_on_random_masks():
    count = 0
    for mask in random_masks():
        N, line = mask.size, ref_mask_to_hex(mask)
        assert polar._mask_to_hex(mask) == line, N
        assert np.array_equal(polar._parse_mask_line(line, N, 1), mask), N
        assert np.array_equal(polar._parse_mask_line(line.upper(), N, 1), mask), N
        count += 1
    assert count == 360


def test_spec_texts_equal_the_reference_on_random_masks():
    for mask in random_masks(seed=1, per_n=10):
        mask[0] |= not mask.all()  # a code with frozen bits freezes index 0
        spec = CodeSpec(frozen_mask=mask, design_sigma2=0.5)
        text = spec_to_text(spec)
        assert text.splitlines()[-1] == ref_mask_to_hex(mask)
        back = spec_from_text(text)
        assert np.array_equal(back.frozen_mask, mask) and back.design_sigma2 == 0.5


@pytest.mark.parametrize("N", [2, 4])
def test_every_one_digit_line_reads_as_the_reference(N):
    """N = 2 and 4 take one hex digit: two padding bits past N = 2, and half
    a packed byte at both."""
    for digit in "0123456789abcdefABCDEF":
        try:
            want = ref_hex_to_mask(digit, N)
        except MaskFileError:
            with pytest.raises(MaskFileError, match="line 1: padding bits must be zero"):
                polar._parse_mask_line(digit, N, 1)
        else:
            assert np.array_equal(polar._parse_mask_line(digit, N, 1), want), digit


def test_a_set_padding_bit_is_rejected():
    for token in ("1", "2", "3", "d"):
        with pytest.raises(MaskFileError, match="line 3: padding bits must be zero"):
            spec_from_text(f"N=2\nk=1\n{token}\n")
    assert np.flatnonzero(spec_from_text("N=2\nk=1\n8\n").frozen_mask).tolist() == [0]


@pytest.mark.parametrize("N, token", [(8, "-f"), (8, "+f"), (16, "0x1f"), (16, "1_ff")])
def test_hex_width_tokens_that_are_not_hex_digits_are_bad_tokens(N, token):
    """int(token, 16) would read each of these; at the hex width the mask
    line holds hex digits only, so they are decimal tokens, and not decimal."""
    assert len(token) == N // 4
    with pytest.raises(MaskFileError, match=re.escape(f"line 3: bad mask token '{token}'")):
        spec_from_text(f"N={N}\nk=4\n{token}\n")


def test_half_rate_mask_at_n_20_round_trips():
    N = 1 << 20
    spec = construct_frozen_set(20, N // 2, ebno_to_sigma2(2.0, 0.5))
    text = spec_to_text(spec)
    line = text.splitlines()[-1]
    assert len(line) == N // 4
    # the line is the mask's bits read as one binary number
    bits = "".join("01"[b] for b in spec.frozen_mask.tolist())
    assert line == format(int(bits, 2), f"0{N // 4}x")
    back = spec_from_text(text)
    assert np.array_equal(back.frozen_mask, spec.frozen_mask)
    assert back.design_sigma2 == float(f"{spec.design_sigma2:.12g}")
    assert zlib.crc32(text.encode()) == zlib.crc32(spec_to_text(back).encode())


def sweep_programs():
    """GA codes over n = 1..10 at several rates, under five rule sets, and
    the (1024, 512) and (32768, 29492) codes."""
    rules = [rules_from_names(r) for r in ("all", "none", "ssc", "spc,rep", "rep-spc,ml4")]
    for n in range(1, 11):
        N = 1 << n
        for k in sorted({1, N // 4 or 1, N // 2, 3 * N // 4 or 1, N - 1, N}):
            spec = construct_frozen_set(n, k, ebno_to_sigma2(2.0, k / N))
            for r in rules:
                yield spec, compile_tree(build_tree(spec, 64, r))
    for n, k in ((10, 512), (15, 29492)):
        spec = construct_frozen_set(n, k, ebno_to_sigma2(4.0, k / (1 << n)))
        yield spec, compile_tree(build_tree(spec, 256))


def test_program_binaries_and_masks_equal_the_reference_on_the_sweep():
    for spec, prog in sweep_programs():
        blob = serialize_program_binary(prog)
        assert blob == ref_program_binary(prog.n_bits, prog.k, prog.p, fields_of(prog)), spec
        fields = ref_program_fields(blob[18:], len(prog.instructions))
        assert fields == [(int(i.op), i.right) for i in prog.instructions]
        assert parse_program_binary(blob) == prog
        assert spec_to_text(spec).splitlines()[-1] == ref_mask_to_hex(spec.frozen_mask)


def test_binary_truncation_names_the_byte_counts():
    spec = construct_frozen_set(10, 512, ebno_to_sigma2(4.0, 0.5))
    prog = compile_tree(build_tree(spec, 256))
    blob = serialize_program_binary(prog)
    nbytes = (5 * len(prog.instructions) + 7) // 8
    for bad in (blob[:-1], blob + b"\0", blob[:18]):
        with pytest.raises(ProgramFormatError) as e:
            parse_program_binary(bad)
        got = len(bad) - 18
        assert str(e.value) == f"truncated program body: expected {nbytes} bytes, got {got}"
        assert e.value.pc is None


def test_unknown_opcode_is_reported_at_the_first_bad_field():
    spec = construct_frozen_set(10, 512, ebno_to_sigma2(4.0, 0.5))
    prog = compile_tree(build_tree(spec, 256))
    fields = fields_of(prog)
    n = len(fields)
    assert n > 200
    # fields 36 and 150 straddle a byte boundary; every later field is bad too
    for first, value in ((36, 13), (150, 14 | 16), (n - 1, 15 | 16)):
        bad = fields[:first] + [value] + [15] * (n - first - 1)
        with pytest.raises(ProgramFormatError) as e:
            parse_program_binary(ref_program_binary(10, 512, 256, bad))
        assert (e.value.pc, str(e.value)) == (
            first, f"instruction {first}: unknown opcode value {value & 15}")
    # a set bit in the last byte's padding is no field
    blob = serialize_program_binary(prog)
    assert 5 * n % 8
    assert parse_program_binary(blob[:-1] + bytes([blob[-1] | 0x80])) == prog

