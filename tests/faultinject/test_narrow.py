"""The frozen-content ladder: narrow storage that thaws back bit for bit.

``SnapshotRecorder`` freezes each dead array with
:func:`~repro.faultinject.fastforward._narrow`, which stores it in the
narrowest ladder dtype whose round trip is exact, and
:meth:`~repro.faultinject.fastforward.AllocRecord.thaw` rebuilds it.
The oracle here decides exactness element by element, without the
array round trip the ladder itself runs: integers by modular
conversion in Python, float64 into an integer dtype by value, range
and sign, and float64 into float32 by converting each scalar.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.faultinject.fastforward import _PROBE, AllocRecord, _narrow

_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6)
_INTS = [np.dtype(code) for code in ("i1", "i2", "i4", "i8", "u1", "u2", "u4", "u8")]

#: The ladder as specified: the dtypes an integer array may be stored
#: in, and those a float64 array may be stored in.
_INT_RUNGS = [np.dtype(code) for code in ("i1", "u1", "i2", "u2", "i4", "u4")]
_FLOAT_RUNGS = [np.dtype(code) for code in ("u1", "i1", "u2", "i2", "f4")]


def _wrap(value: int, dtype: np.dtype) -> int:
    """``value`` converted to the integer ``dtype`` with C's modular wrap."""
    bits = dtype.itemsize * 8
    value %= 1 << bits
    return value - (1 << bits) if dtype.kind == "i" and value >> (bits - 1) else value


def _exact(array: np.ndarray, dtype: np.dtype) -> bool:
    """Whether every element of ``array`` comes back bitwise from ``dtype``."""
    values = array.reshape(-1)
    if array.dtype.kind in "iu":
        return all(_wrap(_wrap(int(v), dtype), array.dtype) == int(v) for v in values)
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        return all(
            np.isfinite(v)
            and v == np.trunc(v)
            and info.min <= v <= info.max
            and not (v == 0 and np.signbit(v))
            for v in values
        )
    with np.errstate(over="ignore"):
        back = [np.float64(np.float32(v)).view(np.uint64) for v in values]
    return all(a == b for a, b in zip(back, values.view(np.uint64)))


def _expected(array: np.ndarray) -> np.dtype:
    """The narrowest exact ladder dtype narrower than ``array``'s, else its own.

    Of two exact rungs of one width, the first on the ladder.
    """
    if array.dtype == np.float64:
        rungs = _FLOAT_RUNGS
    elif array.dtype.kind in "iu":
        rungs = _INT_RUNGS
    else:
        rungs = []
    exact = [
        rung
        for rung in rungs
        if rung.itemsize < array.dtype.itemsize and _exact(array, rung)
    ]
    return min(exact, key=lambda rung: rung.itemsize, default=array.dtype)


def _record(array: np.ndarray) -> AllocRecord:
    return AllocRecord(
        aid=0,
        dtype=array.dtype,
        shape=array.shape,
        nbytes=max(array.nbytes, 1),
        frozen=_narrow(array),
    )


def _check(array: np.ndarray) -> None:
    before = array.tobytes()
    record = _record(array)
    thawed = record.thaw()
    assert (thawed.dtype, thawed.shape) == (array.dtype, array.shape)
    assert thawed.tobytes() == before
    assert thawed.flags.writeable and not np.shares_memory(thawed, record.frozen)
    assert record.frozen.dtype == _expected(array), (array, record.frozen.dtype)
    assert record.frozen.flags.owndata and not record.frozen.flags.writeable
    assert not np.shares_memory(record.frozen, array)
    assert array.tobytes() == before


def _int_arrays(dtype: np.dtype):
    info = np.iinfo(dtype)
    small = st.integers(max(info.min, -70_000), min(info.max, 70_000))
    extreme = st.sampled_from([info.min, info.max, info.min + 1, info.max - 1, 0])
    anything = st.integers(info.min, info.max)
    return hnp.arrays(dtype, _SHAPES, elements=st.one_of(small, extreme, anything))


_FLOAT64 = st.one_of(
    # Integral values around every integer rung.
    st.integers(-70_000, 70_000).map(float),
    # float32 values, subnormals and infinities included.
    st.floats(width=32),
    st.floats(allow_subnormal=True),
    st.sampled_from([-0.0, 0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.0**-149, 2.0**-126]),
)


def _bit_patterns(shape):
    """Arbitrary float64 bit patterns: NaN payloads, signalling NaNs, subnormals."""
    return hnp.arrays(np.uint64, shape).map(lambda bits: bits.view(np.float64))


@settings(max_examples=300, deadline=None)
@given(array=st.one_of(*(_int_arrays(dtype) for dtype in _INTS)))
def test_integer_arrays_thaw_bitwise_in_the_narrowest_exact_dtype(array):
    _check(array)


@settings(max_examples=300, deadline=None)
@given(
    array=st.one_of(
        hnp.arrays(np.float64, _SHAPES, elements=_FLOAT64),
        _SHAPES.flatmap(_bit_patterns),
    )
)
def test_float64_arrays_thaw_bitwise_in_the_narrowest_exact_dtype(array):
    _check(array)


@settings(max_examples=100, deadline=None)
@given(
    array=st.one_of(
        hnp.arrays(np.bool_, _SHAPES),
        hnp.arrays(np.float32, _SHAPES),
        hnp.arrays(np.float16, _SHAPES),
        hnp.arrays(np.complex128, _SHAPES),
    )
)
def test_off_ladder_dtypes_keep_their_own(array):
    _check(array)


@pytest.mark.parametrize(
    "array",
    [
        # Past the leading probe, one element does not fit the rung the
        # probe accepts.
        np.concatenate([np.zeros(2 * _PROBE), [0.5]]),
        np.concatenate([np.zeros(2 * _PROBE), [-0.0]]),
        np.concatenate([np.zeros(2 * _PROBE), [np.nan]]),
        np.concatenate([np.arange(2 * _PROBE, dtype=np.int64), [1 << 40]]),
        np.concatenate([np.full(2 * _PROBE, 200, dtype=np.uint32), [70_000]]),
        # Extremes of the widest integer dtypes.
        np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max]),
        np.array([np.iinfo(np.uint64).max, 0], dtype=np.uint64),
        # Empty and 0-d arrays.
        np.zeros((0, 3)),
        np.array(-0.0),
        np.array(7.0),
        np.array(True),
    ],
)
def test_edge_arrays(array):
    _check(array)


def test_non_contiguous_array_freezes_in_c_order():
    base = np.arange(60.0).reshape(6, 10)
    view = base[::-2, 1::3]
    record = _record(view)
    assert record.thaw().tobytes() == view.tobytes()
    assert record.frozen.dtype == np.uint8
