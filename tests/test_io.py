"""Binary readers: exact round trips, and a named error for a header
that declares more payload than its file holds."""

import os
import struct
import threading

import numpy as np
import pytest

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
