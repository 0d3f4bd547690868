"""Hypothesis strategies that damage a valid file's bytes, for the parser
fuzz tests: after ``corrupted`` each parser must either return what
re-serializes to the damaged bytes or raise its own format error; after
``non_finite`` it must raise its format error."""

from __future__ import annotations

import struct
from typing import Sequence

from hypothesis import strategies as st


@st.composite
def corrupted(draw, original: bytes) -> bytes:
    """``original`` with one to four bytes flipped, inserted or deleted, then
    possibly cut short."""
    data = bytearray(original)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("flip", "insert", "delete")))
        at = draw(st.integers(0, len(data)))
        if kind == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=4))
        elif at < len(data):
            if kind == "flip":
                data[at] ^= draw(st.integers(1, 255))
            else:
                del data[at]
    if draw(st.booleans()):
        del data[draw(st.integers(0, len(data))) :]
    return bytes(data)


@st.composite
def non_finite(draw, original: bytes, value_offsets: Sequence[int]) -> bytes:
    """``original`` with the little-endian float64 at one of
    ``value_offsets`` overwritten by +Inf, -Inf or a NaN of either sign and
    any payload."""
    at = draw(st.sampled_from(value_offsets))
    sign = draw(st.integers(0, 1)) << 63
    mantissa = draw(st.one_of(st.just(0), st.integers(1, 2**52 - 1)))  # 0: infinity
    data = bytearray(original)
    data[at : at + 8] = struct.pack("<Q", sign | 0x7FF << 52 | mantissa)
    return bytes(data)
