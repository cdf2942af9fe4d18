"""Binary readers: exact round trips, and a named error for a header
that declares more payload than its file holds.  The fuzz tests mutate
valid files: a truncated or extended file must raise ``FormatError``, and
a byte flip either parses or raises ``FormatError``, never anything else."""

import os
import struct
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from semcert import io as semio
from semcert.classifiers import LinearClassifier
from semcert.tensor import ImageTensor


def test_round_trips_and_truncation(tmp_path):
    rng = np.random.default_rng(3)
    x = ImageTensor(rng.random((2, 3, 4)))
    clf = LinearClassifier(rng.normal(size=(5, 24)), rng.normal(size=5), (2, 3, 4))
    semio.write_tensor(x, tmp_path / "x.semt")
    semio.save_linear_classifier(clf, tmp_path / "w.semw")
    np.testing.assert_array_equal(semio.read_tensor(tmp_path / "x.semt").data, x.data)
    back = semio.load_linear_classifier(tmp_path / "w.semw")
    np.testing.assert_array_equal(back.weights, clf.weights)
    np.testing.assert_array_equal(back.bias, clf.bias)
    for name, reader in (("x.semt", semio.read_tensor),
                         ("w.semw", semio.load_linear_classifier)):
        path = tmp_path / name
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(semio.FormatError, match="truncated file"):
            reader(path)


@pytest.mark.parametrize("reader,header", [
    (semio.read_idx_images, struct.pack(">IIII", 0x803, 100_000, 100_000, 100_000)),
    (semio.read_idx_labels, struct.pack(">II", 0x801, 2**32 - 1)),
    (semio.read_tensor, b"SEMT1 100000 100000 100000\n"),
    (semio.load_linear_classifier, b"SEMW1 100000 100000 100000 1\n"),
], ids=["idx_images", "idx_labels", "semt1", "semw1"])
def test_huge_declared_payload_fails_before_reading(tmp_path, reader, header):
    # the payload is compared with the file's size before any read, so
    # no buffer of the declared size is ever requested
    path = tmp_path / "huge"
    path.write_bytes(header + bytes(64))
    with pytest.raises(semio.FormatError, match="truncated file: expected .* found 64"):
        reader(path)


def test_pipe_is_read_then_measured(tmp_path):
    # a pipe has no size to check up front: it is read, then measured
    x = ImageTensor(np.arange(6.0).reshape(1, 2, 3))
    semio.write_tensor(x, tmp_path / "x.semt")
    payload = (tmp_path / "x.semt").read_bytes()
    fifo = tmp_path / "fifo"
    for data in (payload, payload[:-1]):
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        try:
            if data == payload:
                np.testing.assert_array_equal(semio.read_tensor(fifo).data, x.data)
            else:
                with pytest.raises(semio.FormatError, match="expected 48 bytes .* found 47"):
                    semio.read_tensor(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        fifo.unlink()


def test_non_finite_tensor_payload(tmp_path):
    for bad in (np.nan, np.inf, -np.inf):
        path = tmp_path / "bad.semt"
        path.write_bytes(b"SEMT1 1 1 3\n" + np.array([0.0, bad, 1.0], dtype="<f8").tobytes())
        with pytest.raises(semio.FormatError, match="non-finite"):
            semio.read_tensor(path)


def test_idx_images_without_pixels(tmp_path):
    path = tmp_path / "empty.idx"
    path.write_bytes(struct.pack(">IIII", 0x803, 3, 0, 4))
    with pytest.raises(semio.FormatError, match="has no pixels"):
        semio.read_idx_images(path)


# one settings object for every fuzz test: deterministic, no example
# database on disk, and a bounded number of files per test
_FUZZ = settings(max_examples=60, deadline=None, database=None, derandomize=True,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])

_dims = st.integers(1, 4)


@st.composite
def _idx_images(draw):
    count, rows, cols = draw(st.integers(0, 3)), draw(_dims), draw(_dims)
    pixels = draw(st.binary(min_size=count * rows * cols, max_size=count * rows * cols))
    return struct.pack(">IIII", 0x803, count, rows, cols) + pixels


@st.composite
def _idx_labels(draw):
    labels = draw(st.binary(max_size=6))
    return struct.pack(">II", 0x801, len(labels)) + labels


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _semt1(draw):
    k, w, h = draw(_dims), draw(_dims), draw(_dims)
    values = draw(st.lists(_finite, min_size=k * w * h, max_size=k * w * h))
    return f"SEMT1 {k} {w} {h}\n".encode() + np.array(values, dtype="<f8").tobytes()


@st.composite
def _semw1(draw):
    c, k, w, h = draw(st.integers(1, 3)), draw(_dims), draw(_dims), draw(_dims)
    n = c * k * w * h + c
    values = draw(st.lists(_finite, min_size=n, max_size=n))
    return f"SEMW1 {c} {k} {w} {h}\n".encode() + np.array(values, dtype="<f8").tobytes()


_READERS = {
    "idx_images": (_idx_images(), semio.read_idx_images),
    "idx_labels": (_idx_labels(), semio.read_idx_labels),
    "semt1": (_semt1(), semio.read_tensor),
    "semw1": (_semw1(), semio.load_linear_classifier),
}


@st.composite
def _mutated(draw, kind):
    """(how, bytes): a valid file of ``kind`` cut short, extended or flipped."""
    data = draw(_READERS[kind][0])
    how = draw(st.sampled_from(["truncate", "extend", "flip"]))
    if how == "truncate":
        return how, data[:draw(st.integers(0, len(data) - 1))]
    if how == "extend":
        return how, data + draw(st.binary(min_size=1, max_size=16))
    at = draw(st.integers(0, len(data) - 1))
    flipped = data[at] ^ draw(st.integers(1, 255))
    return how, data[:at] + bytes([flipped]) + data[at + 1:]


@pytest.mark.parametrize("kind", sorted(_READERS))
@_FUZZ
@given(data=st.data())
def test_fuzz_mutated_file(tmp_path, kind, data):
    how, blob = data.draw(_mutated(kind))
    path = tmp_path / "fuzz.bin"
    path.write_bytes(blob)
    try:
        _READERS[kind][1](path)
    except semio.FormatError:
        return
    assert how == "flip", f"{how} file parsed"


@_FUZZ
@given(data=_idx_images(), labels=_idx_labels())
def test_fuzz_idx_round_trip(tmp_path, data, labels):
    (tmp_path / "i.idx").write_bytes(data)
    (tmp_path / "l.idx").write_bytes(labels)
    count, rows, cols = struct.unpack(">III", data[4:16])
    images = semio.read_idx_images(tmp_path / "i.idx")
    pixels = np.frombuffer(data[16:], dtype=np.uint8).reshape(count, rows, cols)
    assert len(images) == count
    for img, raw in zip(images, pixels):
        np.testing.assert_array_equal(img.data, raw.T[None] / 255.0)
    np.testing.assert_array_equal(semio.read_idx_labels(tmp_path / "l.idx"),
                                  np.frombuffer(labels[8:], dtype=np.uint8))


@_FUZZ
@given(data=_semt1())
def test_fuzz_semt1_round_trip(tmp_path, data):
    (tmp_path / "x.semt").write_bytes(data)
    x = semio.read_tensor(tmp_path / "x.semt")
    semio.write_tensor(x, tmp_path / "y.semt")
    assert (tmp_path / "y.semt").read_bytes() == data


@_FUZZ
@given(data=_semw1())
def test_fuzz_semw1_round_trip(tmp_path, data):
    (tmp_path / "w.semw").write_bytes(data)
    clf = semio.load_linear_classifier(tmp_path / "w.semw")
    semio.save_linear_classifier(clf, tmp_path / "v.semw")
    assert (tmp_path / "v.semw").read_bytes() == data
