"""Self-delimiting binary codec for integer triples.

A triple (a1, a2, a3) with a1 >= 1 and a2, a3 nonzero is written as

    xi2 xi3 beta1 000 beta2 000 beta3

where xi_i is the sign bit of a_i (1 = positive), and beta_i expands the
binary magnitude of a_i bit by bit: 1 -> "10", 0 -> "01".  A pair's first
character is its bit, and no pair is "00", so each payload ends where the
pairs stop and the separator begins.  `decode` reads the triple that way
and accepts it only if `encode` writes the input back, so it accepts
exactly the codewords; `unpack_bits` checks `pack_bits` the same way.

The triple names a tile: (a2, a3) is the column and row of a square grid
of side 1/a1 anchored at the agent's start.  Columns count +1, +2, ...
going East of the anchor and -1, -2, ... going West, rows likewise North
and South; there is no column or row 0.  Grid cell k, spanning
[anchor + k/a1, anchor + (k+1)/a1], has index k+1 for k >= 0 and k for
k < 0.  `tile_index` takes a cell to its index, for the oracle;
`tile_center` takes the anchor and the triple to the tile's center, for
the agent.
"""
from __future__ import annotations

from typing import NamedTuple

from .geom import Point


class AdviceError(ValueError):
    pass


class AdviceTriple(NamedTuple):
    a1: int
    a2: int
    a3: int


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


def decode(s: str) -> AdviceTriple:
    """Invert encode(); raises AdviceError on any string encode does not write."""
    mags = []
    i = 2
    for _ in range(3):
        j = i
        while s[j:j + 2] in ("10", "01"):
            j += 2
        mags.append(int(s[i:j:2] or "0", 2))
        i = j + 3
    triple = AdviceTriple(mags[0], mags[1] if s[:1] == "1" else -mags[1],
                          mags[2] if s[1:2] == "1" else -mags[2])
    try:
        if encode(*triple) == s:
            return triple
    except AdviceError:
        pass
    raise AdviceError("advice is not a codeword")


def tile_index(cell: int) -> int:
    """Signed nonzero index of grid cell `cell` (see the module docstring)."""
    return cell + 1 if cell >= 0 else cell


def tile_center(anchor: Point, triple: AdviceTriple) -> Point:
    """Center of the tile (a2, a3) of the grid of side 1/a1 anchored at
    `anchor`.  Raises OverflowError if it lies beyond float range."""
    side = 1.0 / triple.a1
    kx, ky = (a - 1 if a > 0 else a for a in triple[1:])
    return Point(anchor.x + (kx + 0.5) * side, anchor.y + (ky + 0.5) * side)


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
    """Invert pack_bits(); raises AdviceError on any bytes pack_bits does not write."""
    n = int.from_bytes(data[:4], "big")
    bits = "".join(format(b, "08b") for b in data[4:])[:n]
    if pack_bits(bits) != data:
        raise AdviceError("packed advice is not what pack_bits writes")
    return bits
