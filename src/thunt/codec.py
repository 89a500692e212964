"""Self-delimiting binary codec for integer triples.

A triple (a1, a2, a3) with a1 >= 1 and a2, a3 nonzero is written as

    xi2 xi3 beta1 000 beta2 000 beta3

where xi_i is the sign bit of a_i (1 = positive), and beta_i expands the
binary magnitude of a_i bit by bit: 1 -> "10", 0 -> "01".  The expansion
never contains three consecutive zeros, so the two separators are exactly
the trailing three zeros of the only two long zero-runs in the string,
which makes decoding unambiguous.
"""
from __future__ import annotations

import re
from typing import NamedTuple


class AdviceError(ValueError):
    pass


class AdviceTriple(NamedTuple):
    a1: int
    a2: int
    a3: int


_PAIR_TO_BIT = {"10": "1", "01": "0"}


def _expand(value: int) -> str:
    return "".join("10" if ch == "1" else "01" for ch in format(value, "b"))


def encode(a1: int, a2: int, a3: int) -> str:
    """Encode a triple as a '0'/'1' string."""
    if a1 <= 0:
        raise AdviceError("first component must be a positive integer")
    if a2 == 0 or a3 == 0:
        raise AdviceError("second and third components must be nonzero")
    xi2 = "1" if a2 > 0 else "0"
    xi3 = "1" if a3 > 0 else "0"
    return (xi2 + xi3 + _expand(a1) + "000" + _expand(abs(a2)) + "000"
            + _expand(abs(a3)))


def _contract(payload: str, which: int) -> int:
    if not payload:
        raise AdviceError(f"payload {which} is empty")
    if len(payload) % 2 != 0:
        raise AdviceError(f"payload {which} has odd length")
    bits = []
    for i in range(0, len(payload), 2):
        pair = payload[i:i + 2]
        bit = _PAIR_TO_BIT.get(pair)
        if bit is None:
            raise AdviceError(f"payload {which} contains invalid pair {pair!r}")
        bits.append(bit)
    if bits[0] == "0":
        raise AdviceError(f"payload {which} has a leading zero magnitude bit")
    value = int("".join(bits), 2)
    if value == 0:
        raise AdviceError(f"payload {which} decodes to zero")
    return value


def decode(s: str) -> AdviceTriple:
    """Invert encode(); raises AdviceError on any malformed string."""
    if not s or any(ch not in "01" for ch in s):
        raise AdviceError("advice must be a nonempty string of 0/1")
    if len(s) < 2:
        raise AdviceError("advice too short for sign bits")
    runs = [m for m in re.finditer(r"0{3,}", s)]
    if len(runs) != 2:
        raise AdviceError(f"expected exactly 2 zero-runs of length >= 3, found {len(runs)}")
    for m in runs:
        # a valid codeword contributes at most one payload zero per side of
        # a separator, so runs of 5+ indicate corruption
        if m.end() - m.start() > 4:
            raise AdviceError("zero-run longer than 4 bits")
    sep1_start = runs[0].end() - 3
    sep2_start = runs[1].end() - 3
    if sep1_start < 2:
        raise AdviceError("first separator overlaps the sign bits")
    tau2, tau3 = s[0], s[1]
    gamma1 = s[2:sep1_start]
    gamma2 = s[runs[0].end():sep2_start]
    gamma3 = s[runs[1].end():]
    d1 = _contract(gamma1, 1)
    d2 = _contract(gamma2, 2)
    d3 = _contract(gamma3, 3)
    return AdviceTriple(d1, d2 if tau2 == "1" else -d2, d3 if tau3 == "1" else -d3)


def pack_bits(s: str) -> bytes:
    """Packed binary form: 4-byte big-endian bit count, then bits MSB-first."""
    if any(ch not in "01" for ch in s):
        raise AdviceError("advice must be a string of 0/1")
    n = len(s)
    out = bytearray(n.to_bytes(4, "big"))
    for i in range(0, n, 8):
        chunk = s[i:i + 8]
        out.append(int(chunk.ljust(8, "0"), 2))
    return bytes(out)


def unpack_bits(data: bytes) -> str:
    if len(data) < 4:
        raise AdviceError("packed advice too short for length prefix")
    n = int.from_bytes(data[:4], "big")
    need = (n + 7) // 8
    if len(data) != 4 + need:
        raise AdviceError(
            f"packed advice payload length mismatch (expected {need} bytes for {n} bits)")
    bits = "".join(format(b, "08b") for b in data[4:])
    tail = bits[n:]
    if any(ch != "0" for ch in tail):
        raise AdviceError("packed advice has nonzero padding bits")
    return bits[:n]
