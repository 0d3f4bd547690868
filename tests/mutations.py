"""Hypothesis strategies that damage a valid file's bytes, for the parser
fuzz tests: after ``corrupted`` each parser must either return what
re-serializes to the damaged bytes or raise its own format error; after
``non_finite`` it must raise its format error."""

from __future__ import annotations

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
def non_finite(draw, original: bytes, value_offsets: Sequence[int], width: int = 8) -> bytes:
    """``original`` with the little-endian float of ``width`` bytes (8 for
    float64, 4 for float32) at one of ``value_offsets`` overwritten by +Inf,
    -Inf or a NaN of either sign and any payload."""
    exponent, fraction = {8: (11, 52), 4: (8, 23)}[width]
    at = draw(st.sampled_from(value_offsets))
    sign = draw(st.integers(0, 1)) << (8 * width - 1)
    mantissa = draw(st.one_of(st.just(0), st.integers(1, 2**fraction - 1)))  # 0: infinity
    data = bytearray(original)
    bits = sign | (2**exponent - 1) << fraction | mantissa
    data[at : at + width] = bits.to_bytes(width, "little")
    return bytes(data)
