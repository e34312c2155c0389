import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcvseg.geometry import Lattice
from mcvseg.partition import ABSENT, Partition
from mcvseg.pnmio import (ImageBuffer, PnmParseError, colorize, load_labels,
                          load_pnm, save_labels, save_pnm)


def test_load_p2_plain():
    img = load_pnm(b"P2\n# comment\n3 2\n255\n0 10 20\n30 40 50\n")
    assert img.lattice == Lattice(3, 2)
    assert img.bands == 1
    assert img.max_value == 255
    assert img.samples[1, 2, 0] == 50.0
    assert img.value_at((1, 2))[0] == 30.0


def test_load_p5_raw():
    data = b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4])
    img = load_pnm(data)
    assert img.samples[:, :, 0].tolist() == [[1, 2], [3, 4]]


def test_load_p6_raw_color():
    data = b"P6\n1 2\n255\n" + bytes([255, 0, 0, 0, 0, 255])
    img = load_pnm(data)
    assert img.bands == 3
    assert img.samples[0, 0].tolist() == [255.0, 0.0, 0.0]
    assert img.samples[1, 0].tolist() == [0.0, 0.0, 255.0]


def test_load_16bit_big_endian():
    data = b"P5\n2 1\n65535\n" + bytes([0x01, 0x00, 0xFF, 0xFE])
    img = load_pnm(data)
    assert img.samples[0, 0, 0] == 256.0
    assert img.samples[0, 1, 0] == 65534.0


def test_bad_magic_names_offset():
    with pytest.raises(PnmParseError) as exc:
        load_pnm(b"P7\n1 1\n255\n\x00")
    assert "offset 0" in str(exc.value)


def test_truncated_raster_names_offset():
    data = b"P5\n2 2\n255\n" + bytes([1, 2, 3])
    with pytest.raises(PnmParseError) as exc:
        load_pnm(data)
    assert exc.value.offset is not None
    assert "offset" in str(exc.value)


def test_plain_header_larger_than_file_rejected_before_allocating():
    """A 24-byte file claiming 10^10 samples fails on its length, not
    after allocating tens of GiB for the raster."""
    data = b"P2\n100000 100000\n255\n1 2 3\n"
    with pytest.raises(PnmParseError, match="truncated raster") as exc:
        load_pnm(data)
    assert exc.value.offset == len(data)
    # The bound is one digit per sample and one separator between them.
    assert load_pnm(b"P3\n1 1\n9\n1 2 3").samples.tolist() == [[[1.0, 2.0, 3.0]]]
    with pytest.raises(PnmParseError, match="truncated raster"):
        load_pnm(b"P3\n1 1\n9\n1 2")


def test_plain_sample_above_maxval():
    with pytest.raises(PnmParseError):
        load_pnm(b"P2\n1 1\n10\n11\n")


def test_zero_maxval_rejected():
    with pytest.raises(PnmParseError):
        load_pnm(b"P2\n1 1\n0\n0\n")


def test_save_raw_round_trip():
    img = load_pnm(b"P2\n3 2\n255\n0 10 20\n30 40 50\n")
    again = load_pnm(save_pnm(img))
    assert np.array_equal(again.samples, img.samples)
    assert again.max_value == img.max_value


def test_save_plain_round_trip():
    img = load_pnm(b"P5\n2 2\n255\n" + bytes([9, 8, 7, 6]))
    text = save_pnm(img, plain=True)
    assert text.startswith(b"P2\n")
    again = load_pnm(text)
    assert np.array_equal(again.samples, img.samples)


@settings(max_examples=60, deadline=None)
@given(
    w=st.integers(1, 6),
    h=st.integers(1, 6),
    bands=st.sampled_from([1, 3]),
    maxval=st.sampled_from([1, 255, 4095, 65535]),
    body=st.data(),
)
def test_round_trip_any_image(w, h, bands, maxval, body):
    flat = body.draw(st.lists(st.integers(0, maxval), min_size=w * h * bands,
                              max_size=w * h * bands))
    samples = np.array(flat, dtype=np.float64).reshape(h, w, bands)
    img = ImageBuffer(Lattice(w, h), bands, samples, maxval)
    for plain in (False, True):
        again = load_pnm(save_pnm(img, plain=plain))
        assert np.array_equal(again.samples, img.samples)
        assert again.max_value == maxval


def test_label_pgm16_round_trip():
    lm = Partition(Lattice(3, 2), np.array([[0, 1, 2], [3, 4, 65535]]))
    again = load_labels(save_labels(lm, "pgm16"))
    assert np.array_equal(again.labels, lm.labels)


def test_label_csv_round_trip():
    lm = Partition(Lattice(2, 2), np.array([[0, 70000], [1, 2]], dtype=np.int32))
    blob = save_labels(lm, "csv")
    assert blob == b"0,70000\n1,2\n"
    again = load_labels(blob)
    assert np.array_equal(again.labels, lm.labels)


def test_label_overflow_suggests_csv():
    lm = Partition(Lattice(1, 1), np.array([[70000]], dtype=np.int32))
    with pytest.raises(ValueError) as exc:
        save_labels(lm, "pgm16")
    assert "csv" in str(exc.value)


def test_load_labels_rejects_color():
    data = b"P6\n1 1\n255\n\x00\x00\x00"
    with pytest.raises(ValueError):
        load_labels(data)


def test_load_labels_rejects_ragged_csv():
    with pytest.raises(ValueError):
        load_labels(b"1,2\n3\n")


def test_colorize_distinct_and_deterministic():
    labels = np.arange(12, dtype=np.int32).reshape(3, 4)
    lm = Partition(Lattice(4, 3), labels)
    img1 = colorize(lm, seed=5)
    img2 = colorize(lm, seed=5)
    assert np.array_equal(img1.samples, img2.samples)
    colors = {tuple(img1.samples[r, c]) for r in range(3) for c in range(4)}
    assert len(colors) == 12
    assert save_pnm(img1) == save_pnm(img2)


def test_colorize_same_label_same_color():
    lm = Partition(Lattice(2, 1), np.array([[4, 4]], dtype=np.int32))
    img = colorize(lm, seed=0)
    assert tuple(img.samples[0, 0]) == tuple(img.samples[0, 1])


def test_image_buffer_validates_shape():
    with pytest.raises(ValueError):
        ImageBuffer(Lattice(2, 2), 1, np.zeros((2, 3, 1)), 255)
    with pytest.raises(ValueError):
        ImageBuffer(Lattice(2, 2), 1, np.full((2, 2, 1), np.nan), 255)


def test_image_buffer_rejects_what_pnm_cannot_hold():
    # A 0-band image has a consistent (2, 2, 0) sample array.
    with pytest.raises(ValueError, match="bands"):
        ImageBuffer(Lattice(2, 2), 0, np.zeros((2, 2, 0)), 255)
    with pytest.raises(ValueError, match="bands"):
        ImageBuffer(Lattice(2, 2), 1.0, np.zeros((2, 2, 1)), 255)
    for max_value in (0, -1, 65536, 70000, 255.5):
        with pytest.raises(ValueError, match="max_value"):
            ImageBuffer(Lattice(2, 2), 1, np.zeros((2, 2, 1)), max_value)
    for max_value in (1, np.int64(65535)):
        img = ImageBuffer(Lattice(2, 2), 1, np.ones((2, 2, 1)), max_value)
        assert load_pnm(save_pnm(img)).max_value == max_value


def test_load_labels_rejects_labels_outside_int32():
    with pytest.raises(ValueError, match="labels must lie in"):
        load_labels(b"0,3000000000\n")
    with pytest.raises(ValueError, match="labels must lie in"):
        load_labels(b"0,100000000000000000000000\n")
    assert load_labels(b"0,2147483647\n").labels.tolist() == [[0, 2**31 - 1]]


def test_label_image_rejects_negative():
    with pytest.raises(ValueError):
        load_labels(b"0,-1\n")
    partial = Partition(Lattice(2, 1), np.array([[0, ABSENT]]))
    with pytest.raises(ValueError):
        save_labels(partial, "pgm16")
    with pytest.raises(ValueError):
        save_labels(partial, "csv")
    with pytest.raises(ValueError):
        colorize(partial)
