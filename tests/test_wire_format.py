"""Property tests for the sketch wire format (``serialize`` / ``deserialize``).

Both tower classes in both modes over a few groups: a sketch survives the
round trip unchanged, and random, truncated, bit-flipped or forged blobs
either decode to a sketch that re-encodes to the same bytes or raise
``CorruptSketchError``, never any other exception.
"""

import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsketch.errors import CorruptSketchError, InvalidConfigError
from hsketch.groups import make_group
from hsketch.tower import (
    MAGIC,
    VERSION,
    IntegerTowerSketch,
    SketchConfig,
    TowerSketch,
    deserialize,
)

PROPERTY = settings(max_examples=60)

GROUPS = [None, (2,), (7,), (128,), (7, 7), (2, 2, 2)]  # None: integer registers


@st.composite
def sketches(draw):
    """A sketch of either class and mode, with arbitrary valid registers."""
    orders = draw(st.sampled_from(GROUPS))
    mode = draw(st.sampled_from(["poisson", "binomial"]))
    m = draw(st.sampled_from([2, 4, 8]))
    nk = draw(st.integers(1, 40))
    # binomial towers need sigma < 1; a = 5m is enough for these m
    a = 5 * m + draw(st.integers(0, 3 * m)) if mode == "binomial" else draw(st.integers(-3 * m, 3 * m))
    seed = draw(st.integers(0, 2**64 - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if orders is None:
        cfg = SketchConfig(None, m, a, a + nk, seed, mode)
        bound = (1 << 62) - 1
        return IntegerTowerSketch(cfg, rng.integers(-bound, bound, (nk, 3), endpoint=True))
    group = make_group(orders)
    cfg = SketchConfig(group, m, a, a + nk, seed, mode)
    return TowerSketch(cfg, rng.integers(0, orders, (nk, 3, group.degree)))


def _decodes_or_is_corrupt(blob: bytes) -> None:
    """Either ``blob`` decodes to a sketch that re-encodes to ``blob``, or it is rejected."""
    try:
        sk = deserialize(blob)
    except CorruptSketchError:
        return
    assert sk.serialize() == blob


@PROPERTY
@given(sketches())
def test_round_trip_is_identity(sk):
    back = deserialize(sk.serialize())
    assert type(back) is type(sk)
    assert back == sk
    assert back.registers.dtype == np.int64 and back.registers.flags.c_contiguous


@PROPERTY
@given(sketches(), st.data())
def test_truncated_blob_is_corrupt(sk, data):
    blob = sk.serialize()
    cut = data.draw(st.integers(0, len(blob) - 1))
    try:
        deserialize(blob[:cut])
    except CorruptSketchError:
        return
    raise AssertionError(f"a blob cut to {cut} of {len(blob)} bytes decoded")


@PROPERTY
@given(sketches(), st.data())
def test_bit_flipped_blob_decodes_or_is_corrupt(sk, data):
    blob = bytearray(sk.serialize())
    for bit in data.draw(st.lists(st.integers(0, 8 * len(blob) - 1), min_size=1, max_size=4)):
        blob[bit // 8] ^= 1 << (bit % 8)
    _decodes_or_is_corrupt(bytes(blob))


@PROPERTY
@given(st.binary(max_size=200), st.booleans())
def test_random_blob_decodes_or_is_corrupt(tail, framed):
    # framed blobs carry a valid magic and version, so the header fields are random
    _decodes_or_is_corrupt((struct.pack("<4sH", MAGIC, VERSION) if framed else b"") + tail)


@settings(max_examples=200)
@given(
    st.sampled_from([(), (0,), (1,), (7,), (2, 128), (7, 7), (2**32 - 1,), (2**16, 2**16)]),
    st.sampled_from([0, 1, 2, 3, 64, 2**32 - 1]) | st.integers(0, 2**32 - 1),
    st.sampled_from([-(2**31), -1500, -100, 0, 5, 320, 2**31 - 13]) | st.integers(-(2**31), 2**31 - 1),
    st.integers(1, 12),
    st.integers(0, 5),
    st.binary(max_size=8),
)
# cell means past the float range: e^{1500/2} overflows math.exp in the config checks
@example((7,), 2, -1500, 1, 0, b"")
@example((7,), 2, -1500, 1, 1, b"")
@example((0,), 2, -(2**31), 3, 2, b"")
@example((0,), 2, -(2**31), 3, 3, b"")
def test_forged_header_decodes_or_is_corrupt(orders, m, a, nk, mode_byte, junk):
    """Well-framed blobs whose header fields are arbitrary, with a payload of the declared size."""
    b = min(a + nk, 2**31 - 1)
    width = 8 if mode_byte in (2, 3) else 4 * len(orders)  # integer modes carry int64 registers
    payload = bytes(3 * (b - a) * width)
    header = struct.pack("<4sHI", MAGIC, VERSION, len(orders))
    header += struct.pack(f"<{len(orders)}I", *orders)
    header += struct.pack("<IiiQB", m, a, b, 0, mode_byte)
    _decodes_or_is_corrupt(header + payload)
    _decodes_or_is_corrupt(header + payload + junk)


def _around(*edges: int) -> st.SearchStrategy:
    """Integers within 3 of any of ``edges``."""
    return st.one_of(*(st.integers(e - 3, e + 3) for e in edges))


@settings(max_examples=300)
@given(
    st.sampled_from(GROUPS),
    st.sampled_from(["poisson", "binomial"]),
    _around(0, 2, 64, 2**32) | st.integers(-(2**40), 2**40) | st.sampled_from([4.5, 8.0, "8", None]),
    _around(-(2**31), 0, 2**31) | st.integers(-(2**40), 2**40) | st.sampled_from([0.5, 10.0]),
    st.integers(-2, 64),
    _around(0, 2**64) | st.integers(0, 2**64 - 1),
)
@example(None, "poisson", 4.5, 0, 8, 1)
@example((7,), "poisson", 8, 0.5, 8, 1)
@example(None, "poisson", 2**40, 0, 8, 1)
@example((7,), "binomial", 2**32 - 1, 2**31 - 64, 63, 2**64 - 1)
def test_every_accepted_config_round_trips(orders, mode, m, a, width, seed):
    """A config either raises InvalidConfigError or its empty sketch survives the wire format.

    b - a stays at most 64: registers are (b - a, 3[, d]) int64.
    """
    b = a + width
    group = None if orders is None else make_group(orders)
    try:
        cfg = SketchConfig(group, m, a, b, seed, mode)
    except InvalidConfigError:
        return
    sk = IntegerTowerSketch(cfg) if group is None else TowerSketch(cfg)
    back = deserialize(sk.serialize())
    assert back == sk and back.config == cfg
