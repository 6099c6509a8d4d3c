"""The fast canonical update order equals its definition.

``canonical_update_order`` is *defined* as a byte-wise lexsort (one
``uint8`` key per value byte under the destination) and *computed*, for
4- and 8-byte scalar values, by two packed value sorts.  The literal
definition lives here as the oracle; the matrix below crosses every
update dtype the shipped algorithms use with sizes on both sides of the
kernel's limits and with the values a byte order treats differently
from a numeric one.
"""

import numpy as np
import pytest

from repro.algorithms.mcst import _HOOK_DTYPE, _PICK_DTYPE
from repro.core import workload as core_workload
from repro.core.workload import canonical_update_order


def byte_lexsort_order(dst_local, values):
    """The definition: sort by destination, ties by the value's raw
    bytes compared lexicographically in memory order."""
    if len(values) == 0:
        return np.arange(0)
    raw = np.ascontiguousarray(values).view(np.uint8)
    raw = raw.reshape(len(values), -1)
    keys = [raw[:, i] for i in range(raw.shape[1] - 1, -1, -1)]
    keys.append(np.asarray(dst_local))
    return np.lexsort(keys)


def _from_bits(bits, dtype):
    return np.array(bits, dtype=f"u{np.dtype(dtype).itemsize}").view(dtype)


def _float_pool(dtype, rng):
    info = np.finfo(dtype)
    quiet = {8: 0x7FF8000000000000, 4: 0x7FC00000}[info.dtype.itemsize]
    sign = 1 << (info.bits - 1)
    # Bytes tell apart what numbers do not: -0.0 from 0.0, and NaNs by
    # sign and payload.
    hazards = _from_bits(
        [0, sign, quiet | 1, quiet | 2, quiet | sign | 1], dtype
    )
    ordinary = np.array(
        [np.inf, -np.inf, 1.0, -1.0, info.tiny, info.max, -info.max],
        dtype=dtype,
    )
    return np.concatenate(
        [hazards, ordinary, rng.standard_normal(40).astype(dtype)]
    )


def _int_pool(dtype, rng):
    info = np.iinfo(dtype)
    edges = np.array([info.min, info.max, 0, 1], dtype=dtype)
    return np.concatenate(
        [edges, rng.integers(info.min, info.max, size=40, dtype=dtype)]
    )


def _record_pool(dtype, rng):
    pool = np.empty(40, dtype=dtype)
    for name in dtype.names:
        if dtype[name].kind == "f":
            pool[name] = rng.choice(_float_pool(dtype[name], rng), size=40)
        else:
            pool[name] = rng.integers(-3, 50, size=40)
    return pool


DTYPES = {
    "f64": np.dtype(np.float64),
    "f32": np.dtype(np.float32),
    "i64": np.dtype(np.int64),
    "i32": np.dtype(np.int32),
    "u32": np.dtype(np.uint32),
    "mcst_pick": _PICK_DTYPE,
    "mcst_hook": _HOOK_DTYPE,
}

#: 4 KB and 64 KB are one benchmark chunk of 8-byte values each; 300 k
#: is a partition's worth.
SIZES = (0, 1, 2, 512, 8192, 300_000)

#: Exclusive upper bound of the destination ids.  2**40 leaves no room
#: for two digits at 300 k rows, so that cell takes the fallback.
DST_RANGES = {"one_vertex": 1, "2^14": 1 << 14, "2^31": 1 << 31, "2^40": 1 << 40}


def make_updates(dtype, size, dst_range, seed=0):
    """``size`` updates with many exact ``(dst, value)`` duplicates."""
    rng = np.random.default_rng([seed, size, dst_range.bit_length()])
    if dtype.fields is not None:
        pool = _record_pool(dtype, rng)
    elif dtype.kind == "f":
        pool = _float_pool(dtype, rng)
    else:
        pool = _int_pool(dtype, rng)
    distinct = max(1, size // 2)
    base_dst = rng.integers(0, dst_range, size=distinct)
    if distinct > 1:
        base_dst[0], base_dst[1] = 0, dst_range - 1  # both ends of the range
    base_values = rng.choice(pool, size=distinct)
    pick = rng.integers(0, distinct, size=size)
    return base_dst[pick], base_values[pick]


def assert_replays_like_the_definition(dst, values):
    """Replayed sequences, not permutations: ties are interchangeable."""
    order = canonical_update_order(dst, values)
    oracle = byte_lexsort_order(dst, values)
    assert np.array_equal(np.sort(order), np.arange(len(values)))
    assert np.array_equal(np.asarray(dst)[order], np.asarray(dst)[oracle])
    assert (
        np.asarray(values)[order].tobytes()
        == np.asarray(values)[oracle].tobytes()
    )


CASES = [
    pytest.param(dtype, size, bound, id=f"{name}-{size}-{label}")
    for name, dtype in DTYPES.items()
    for size in SIZES
    for label, bound in DST_RANGES.items()
    # One partition-sized cell is enough of what always takes the byte
    # lexsort (the oracle's own algorithm): records, and — 2^31 and 2^40
    # both overflowing two digits at 300 k rows — the wider scalar range.
    if size < 300_000
    or label == "2^14"
    or (dtype.fields is None and label != "2^31")
]


@pytest.mark.parametrize("dtype, size, dst_range", CASES)
def test_order_equals_byte_lexsort_definition(dtype, size, dst_range):
    dst, values = make_updates(dtype, size, dst_range)
    assert_replays_like_the_definition(dst, values)


@pytest.mark.parametrize("dtype", DTYPES.values(), ids=DTYPES.keys())
def test_non_contiguous_inputs(dtype):
    dst, values = make_updates(dtype, 2000, 1 << 14, seed=1)
    assert not values[::2].flags.c_contiguous
    assert_replays_like_the_definition(dst[::2], values[::2])
    assert_replays_like_the_definition(dst[::-1], values[::-1])


def test_negative_destinations_take_the_fallback():
    dst, values = make_updates(DTYPES["f64"], 512, 1 << 14)
    assert_replays_like_the_definition(dst - 100, values)


@pytest.mark.parametrize("name", ["f64", "i64", "u32"])
def test_fast_path_is_taken_at_benchmark_shape(name, monkeypatch):
    """605,587 updates into 2**14 destinations (partition 0 of the
    ``pr_kernel`` benchmark workload) must not reach ``np.lexsort``."""
    dst, values = make_updates(DTYPES[name], 605_587, 1 << 14)

    def no_lexsort(keys, axis=-1):
        raise AssertionError("byte-lexsort fallback taken")

    monkeypatch.setattr(core_workload.np, "lexsort", no_lexsort)
    assert len(canonical_update_order(dst, values)) == len(values)
    # The patch bites: structured records do go through the lexsort.
    records = make_updates(DTYPES["mcst_pick"], 16, 1 << 14)
    with pytest.raises(AssertionError, match="fallback taken"):
        canonical_update_order(*records)
