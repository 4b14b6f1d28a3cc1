import numpy as np
import pytest

from gebd.container import (DTYPE_F64, ContainerError, atomic_open, read_csv,
                            read_tensor, read_tensor_file, write_csv,
                            write_tensor, write_tensor_file)


def test_header_layout_small_vector():
    blob = write_tensor([2], [1.0, 2.0])
    # 4 magic + 1 version + 1 dtype + 1 ndim + 4 dims, then 16 payload bytes
    assert blob[:4] == b"GEBT"
    assert blob[4] == 1 and blob[5] == DTYPE_F64 == 2 and blob[6] == 1
    assert len(blob) == 11 + 16
    assert np.frombuffer(blob[11:], dtype="<f8").tolist() == [1.0, 2.0]


def test_window_shape_payload_size():
    dims = [10, 3, 224, 224]
    blob = write_tensor(dims, np.zeros(10 * 3 * 224 * 224))
    header = 7 + 4 * len(dims)
    assert len(blob) - header == 12_042_240


def test_round_trip_identity():
    data = np.array([0.5, -1.25, 3.75, 1e-20])
    dims, out = read_tensor(write_tensor([2, 2], data))
    assert dims == [2, 2]
    assert out.tobytes() == data.tobytes()


def test_round_trip_random_property():
    rng = np.random.default_rng(7)
    for _ in range(100):
        ndim = int(rng.integers(1, 6))
        dims = [int(rng.integers(1, 5)) for _ in range(ndim)]
        data = rng.standard_normal(int(np.prod(dims)))
        got_dims, got = read_tensor(write_tensor(dims, data))
        assert got_dims == dims
        assert got.tobytes() == data.tobytes()


def test_bad_magic():
    blob = bytearray(write_tensor([2], [1.0, 2.0]))
    blob[0] ^= 0xFF
    with pytest.raises(ContainerError, match="not a GEBT"):
        read_tensor(bytes(blob))


def test_truncated_payload():
    blob = write_tensor([2], [1.0, 2.0])
    with pytest.raises(ContainerError, match="payload length mismatch"):
        read_tensor(blob[:-1])


def test_trailing_bytes_rejected():
    blob = write_tensor([2], [1.0, 2.0]) + b"\x00"
    with pytest.raises(ContainerError, match="payload length mismatch"):
        read_tensor(blob)


def test_unknown_version_and_dtype():
    blob = bytearray(write_tensor([1], [1.0]))
    blob[4] = 9
    with pytest.raises(ContainerError, match="version"):
        read_tensor(bytes(blob))
    blob[4] = 1
    blob[5] = 7
    with pytest.raises(ContainerError, match="dtype"):
        read_tensor(bytes(blob))


def test_dim_count_and_length_validation():
    with pytest.raises(ContainerError, match="ndim"):
        write_tensor([1, 1, 1, 1, 1, 1], [1.0])
    with pytest.raises(ContainerError, match="dim"):
        write_tensor([0], [])
    with pytest.raises(ContainerError, match="length mismatch"):
        write_tensor([3], [1.0, 2.0])


def test_file_round_trip(tmp_path):
    path = tmp_path / "t.gebt"
    data = np.arange(12, dtype=np.float64)
    write_tensor_file(path, [3, 4], data)
    dims, out = read_tensor_file(path)
    assert dims == [3, 4]
    assert out.tobytes() == data.tobytes()
    assert not list(tmp_path.glob("*.tmp.*"))  # atomic writer cleaned up


def test_float64_round_trip_exact(tmp_path):
    data = np.array([0.1, 1 / 3, -2.5e-300, 1e300])
    blob = write_tensor([2, 2], data)
    assert blob[5] == DTYPE_F64
    assert len(blob) == 7 + 8 + 8 * 4
    dims, out = read_tensor(blob)
    assert dims == [2, 2] and out.dtype == np.float64
    assert out.tobytes() == data.tobytes()
    with pytest.raises(ContainerError, match="payload length mismatch"):
        read_tensor(blob[:-4])  # half a value short
    path = tmp_path / "t.gebt"
    write_tensor_file(path, [4], data)
    assert read_tensor_file(path)[1].tobytes() == data.tobytes()


def test_float32_dtype_code_refused():
    # a well-formed float32 file of the earlier format: dtype code 1 and a
    # payload of 4 bytes per value
    blob = (b"GEBT" + bytes([1, 1, 1]) + (2).to_bytes(4, "little")
            + np.array([1.0, 2.0], dtype="<f4").tobytes())
    with pytest.raises(ContainerError, match="unsupported dtype code 1"):
        read_tensor(blob)


def test_atomic_open_failure_keeps_previous_file(tmp_path):
    path = tmp_path / "out.csv"
    with atomic_open(path) as fh:
        fh.write("old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("new, partial")
            raise RuntimeError("crash mid-write")
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_csv_round_trip_quotes_fields(tmp_path):
    path = tmp_path / "t.csv"
    rows = [["clip,01", 'say "hi"', "two\nlines", 0.1], ["v", "", "", 1e-300]]
    write_csv(path, ("video_id", "a", "b", "t"), rows)
    assert path.read_text().splitlines()[:2] == \
        ["video_id,a,b,t", '"clip,01","say ""hi""","two']
    assert read_csv(path, ("video_id", "a", "b", "t")) == \
        [[str(c) for c in row] for row in rows]


def test_csv_header_optional_and_blank_rows_skipped(tmp_path):
    path = tmp_path / "t.csv"
    header = ("video_id", "timestamp")
    for text in ("Video_ID,timestamp\nv,1.0\n\nw,2.0\n", "v,1.0\nw,2.0\n\n"):
        path.write_text(text)
        assert read_csv(path, header) == [["v", "1.0"], ["w", "2.0"]]


@pytest.mark.parametrize("text, line, fields", [
    ("video_id,t,score\nv,0.5,0.1\nv,1.0\n", 3, 2),
    ("v,0.5,0.1,9\n", 1, 4),
    ('video_id,t,score\n"a\nb",0.5\n', 3, 2),  # a quoted field spans lines
    ("video_id,t,score\nclip,01,0.5,0.1\n", 2, 4)])  # an unquoted comma
def test_csv_row_of_wrong_width_named(tmp_path, text, line, fields):
    path = tmp_path / "scores.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"scores\.csv:{line}: expected "
                       rf"video_id,t,score, got {fields} fields"):
        read_csv(path, ("video_id", "t", "score"))


def test_file_header_checked_against_size(tmp_path):
    path = tmp_path / "t.gebt"
    write_tensor_file(path, [2, 2], np.zeros(4))
    blob = path.read_bytes()
    for bad in (blob[:-1], blob + b"\x00", blob[:9]):
        path.write_bytes(bad)
        with pytest.raises(ContainerError, match="length mismatch"):
            read_tensor_file(path)
