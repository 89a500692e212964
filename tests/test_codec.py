import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thunt import AdviceError, decode, encode, pack_bits, unpack_bits
from thunt.codec import AdviceTriple

WORKED_EXAMPLE = "011010000100101000100110"

nonzero = st.integers(min_value=-2 ** 20, max_value=2 ** 20).filter(lambda v: v != 0)
positive = st.integers(min_value=1, max_value=2 ** 20)


def test_worked_example_encode():
    assert encode(3, -4, 5) == WORKED_EXAMPLE


def test_worked_example_decode():
    assert decode(WORKED_EXAMPLE) == AdviceTriple(3, -4, 5)


def test_all_ones_layout():
    assert encode(1, 1, 1) == "11" + "10" + "000" + "10" + "000" + "10"


def test_two_negative_layout():
    assert encode(2, -1, -1) == "00" + "1001" + "000" + "10" + "000" + "10"


@given(positive, nonzero, nonzero)
def test_roundtrip(a1, a2, a3):
    assert decode(encode(a1, a2, a3)) == AdviceTriple(a1, a2, a3)


@given(positive, nonzero, nonzero)
def test_length_formula(a1, a2, a3):
    s = encode(a1, a2, a3)
    bits = abs(a1).bit_length() + abs(a2).bit_length() + abs(a3).bit_length()
    assert len(s) == 8 + 2 * bits


@given(positive, nonzero, nonzero)
def test_payloads_have_no_triple_zero(a1, a2, a3):
    # every long zero-run in a codeword comes from a separator (plus at most
    # one payload zero), so exactly two maximal runs of length 3 or 4 exist
    import re
    s = encode(a1, a2, a3)
    maximal = list(re.finditer(r"0{3,}", s))
    assert len(maximal) == 2
    assert all(3 <= m.end() - m.start() <= 4 for m in maximal)


@pytest.mark.parametrize("triple", [(1, 1, 1), (3, -4, 5), (255, -255, 255),
                                    (2, -1, -1), (1000, 77, -3)])
def test_single_interior_deletion_rejected(triple):
    s = encode(*triple)
    for i in range(1, len(s) - 1):
        mutated = s[:i] + s[i + 1:]
        with pytest.raises(AdviceError):
            decode(mutated)


@pytest.mark.parametrize("bad", [
    "01101000010010100010011",    # truncated: last payload odd
    "",                           # empty
    "01",                         # sign bits only
    "1110000100000000010",        # zero-run of length >= 5
    "11100001000010000010",       # three separators
    "111000010000111",            # odd-length last payload
    "11110001000010",             # bad pair (11) in first payload
    "1101100001000010",           # leading-zero magnitude in first payload
])
def test_malformed_rejected(bad):
    with pytest.raises(AdviceError):
        decode(bad)


def test_encode_validates_domain():
    with pytest.raises(AdviceError):
        encode(0, 1, 1)
    with pytest.raises(AdviceError):
        encode(-3, 1, 1)
    with pytest.raises(AdviceError):
        encode(1, 0, 1)
    with pytest.raises(AdviceError):
        encode(1, 1, 0)


@given(positive, nonzero, nonzero)
def test_packed_roundtrip(a1, a2, a3):
    s = encode(a1, a2, a3)
    assert unpack_bits(pack_bits(s)) == s


@pytest.mark.parametrize("bad", ["012", "0 1", "O1"])
def test_pack_bits_rejects_other_characters(bad):
    with pytest.raises(AdviceError, match="advice must be a string of 0/1"):
        pack_bits(bad)


def test_packed_rejects_corruption():
    data = pack_bits(WORKED_EXAMPLE)
    with pytest.raises(AdviceError):
        unpack_bits(data[:-1])
    with pytest.raises(AdviceError):
        unpack_bits(data[:2])


def test_decode_accepts_exactly_the_codewords_up_to_16_chars():
    codewords = {}
    for a1, m2, m3 in itertools.product(range(1, 4), repeat=3):
        for a2, a3 in itertools.product((m2, -m2), (m3, -m3)):
            s = encode(a1, a2, a3)
            if len(s) <= 16:
                codewords[s] = AdviceTriple(a1, a2, a3)
    assert len(codewords) == 28
    accepted = {}
    for n in range(17):
        for chars in itertools.product("01", repeat=n):
            s = "".join(chars)
            try:
                accepted[s] = decode(s)
            except AdviceError:
                pass
    assert accepted == codewords


def _is_packed(d: bytes) -> bool:
    # the layout pack_bits writes: bit count, exactly its bytes, zero padding
    if len(d) < 4:
        return False
    n = int.from_bytes(d[:4], "big")
    return len(d) == 4 + (n + 7) // 8 and (n % 8 == 0 or d[-1] % (1 << (8 - n % 8)) == 0)


@st.composite
def perturbed_packs(draw):
    d = bytearray(pack_bits(draw(st.text(alphabet="01", max_size=40))))
    how = draw(st.sampled_from(["none", "flip", "truncate", "append"]))
    if how == "flip":
        i = draw(st.integers(0, 8 * len(d) - 1))
        d[i // 8] ^= 1 << (i % 8)
    elif how == "truncate":
        d = d[:draw(st.integers(0, len(d) - 1))]
    elif how == "append":
        d.append(draw(st.integers(0, 255)))
    return bytes(d)


@given(perturbed_packs())
def test_unpack_accepts_exactly_what_pack_writes(d):
    try:
        s = unpack_bits(d)
    except AdviceError:
        assert not _is_packed(d)
    else:
        assert _is_packed(d) and pack_bits(s) == d
