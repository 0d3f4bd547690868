"""A hypothesis strategy that damages a valid file's bytes, for the parser
fuzz tests: each parser must either return what re-serializes to the
damaged bytes or raise its own format error."""

from __future__ import annotations

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
