import struct
import tracemalloc

import numpy as np
import pytest

from tokzip import read_tensor, write_tensor
from tokzip.errors import NonFiniteValueError, ParseError
from tokzip.tensorfile import MAGIC, VERSION


def test_round_trip_bitwise(tmp_path, rng):
    path = tmp_path / "t.tkzt"
    arr = rng.standard_normal((7, 5)).astype(np.float32)
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == np.float32
    assert arr.tobytes() == back.tobytes()


def test_round_trip_1d(tmp_path, rng):
    path = tmp_path / "v.tkzt"
    arr = rng.uniform(size=13).astype(np.float32)
    write_tensor(path, arr)
    np.testing.assert_array_equal(read_tensor(path), arr)


def test_many_random_round_trips(tmp_path, rng):
    for i in range(100):
        shape = tuple(int(x) for x in rng.integers(1, 9, size=int(rng.integers(1, 4))))
        arr = rng.standard_normal(shape).astype(np.float32)
        p = tmp_path / f"r{i}.tkzt"
        write_tensor(p, arr)
        back = read_tensor(p)
        assert back.shape == shape
        assert arr.tobytes() == back.tobytes()


@pytest.mark.parametrize("make", [
    lambda a: a,
    lambda a: np.asfortranarray(a),
    lambda a: a[:, ::2],
    lambda a: a.astype(">f8"),
    lambda a: a.astype(np.float64).T,
    lambda a: a[0, 0],
    lambda a: a[:0],
    lambda a: np.tile(a.astype(np.float64), (33, 1)),  # 132 float64 rows
], ids=["float32", "fortran", "strided", "big_endian_f64", "f64_transposed", "scalar", "empty",
        "f64_tall"])
def test_file_is_header_then_row_major_float32(make, tmp_path, rng):
    arr = make(rng.standard_normal((4, 6)).astype(np.float32))
    want = np.ascontiguousarray(arr, dtype="<f4")
    write_tensor(tmp_path / "t.tkzt", arr)
    data = (tmp_path / "t.tkzt").read_bytes()
    header = struct.pack("<4sHBB", MAGIC, VERSION, 1, want.ndim)
    assert data == header + struct.pack(f"<{want.ndim}I", *want.shape) + want.tobytes()


def test_float32_array_is_written_without_a_copy(tmp_path):
    arr = np.ones((576, 1024), dtype="<f4")  # 2.25 MiB
    tracemalloc.start()
    try:
        write_tensor(tmp_path / "t.tkzt", arr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10
    assert (tmp_path / "t.tkzt").read_bytes().endswith(arr.tobytes())


def test_header_is_little_endian_layout(tmp_path):
    path = tmp_path / "h.tkzt"
    write_tensor(path, np.array([[1.5]], dtype=np.float32))
    data = path.read_bytes()
    assert data[:4] == MAGIC
    assert struct.unpack_from("<H", data, 4)[0] == VERSION
    assert data[6] == 1  # f32 dtype code
    assert data[7] == 2  # ndim
    assert struct.unpack_from("<2I", data, 8) == (1, 1)
    assert struct.unpack_from("<f", data, 16)[0] == 1.5


@pytest.mark.parametrize(
    "mangle,msg",
    [
        (lambda d: b"XKZT" + d[4:], "bad magic"),
        (lambda d: d[:4] + b"\x63\x00" + d[6:], "unknown version"),
        (lambda d: d[:6] + b"\x09" + d[7:], "unknown dtype"),
        (lambda d: d[:-2], "payload length"),
        (lambda d: d + b"\x00" * 8, "payload length"),
        (lambda d: d[:5], "shorter than"),
        (lambda d: d[:10], "truncated dims"),
        # 65536^4 values: the product wraps to 0 in int64, matching the empty payload
        (lambda d: d[:7] + b"\x04" + struct.pack("<4I", *[65536] * 4), "payload length"),
    ],
)
def test_corrupted_headers(tmp_path, mangle, msg):
    path = tmp_path / "c.tkzt"
    write_tensor(path, np.arange(6, dtype=np.float32).reshape(2, 3))
    path.write_bytes(mangle(path.read_bytes()))
    with pytest.raises(ParseError) as exc:
        read_tensor(path)
    assert msg in str(exc.value)
    assert str(path) in str(exc.value)


def test_finite_value_beyond_float32_is_refused_before_writing(tmp_path):
    path = tmp_path / "big.tkzt"
    with pytest.raises(NonFiniteValueError, match="float32 range") as exc:
        write_tensor(path, np.array([1.0, -1e39]))
    assert str(path) in str(exc.value)
    assert not path.exists()
    # NaN and inf are written as given (loader tests need them); underflow is no overflow.
    write_tensor(path, np.array([np.nan, np.inf, -np.inf, 1e-50]))
    back = read_tensor(path)
    assert np.isnan(back[0]) and back[1:].tolist() == [np.inf, -np.inf, 0.0]
