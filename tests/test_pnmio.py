import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcvseg.geometry import Lattice
from mcvseg.partition import ABSENT, Partition
from mcvseg.pnmio import (ImageBuffer, PnmParseError, colorize, load_labels,
                          load_pnm, save_labels, save_pnm)

from oracles import plain_pnm_tokens

# Python's int() refuses strings of more than 4300 digits by default.
LONG = 5000


def test_load_p2_plain():
    img = load_pnm(b"P2\n# comment\n3 2\n255\n0 10 20\n30 40 50\n")
    assert img.lattice == Lattice(3, 2)
    assert img.bands == 1
    assert img.max_value == 255
    assert img.samples[1, 2, 0] == 50.0


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


def test_comments_and_every_whitespace_byte_separate_tokens():
    """Any of the six ASCII whitespace bytes separates tokens, and a '#'
    comment, running to the next CR or LF, may follow a token directly."""
    img = load_pnm(b"P2\f2#w\r1\v#h\n9#m\t# x#\n\n7 \x0b8#last")
    assert (img.lattice, img.max_value) == (Lattice(2, 1), 9)
    assert img.samples[:, :, 0].tolist() == [[7.0, 8.0]]
    assert load_pnm(b"P5\v1\f1\v255\f\x05").samples.tolist() == [[[5.0]]]


@pytest.mark.parametrize("data, message, offset", [
    (b"P", "not a PNM file: too short", 0),
    (b"P7\n1 1\n255\n\x00", "unsupported magic b'P7'", 0),
    (b"P5\n3 2\n# no maxval", "unexpected end of file reading maxval", 18),
    (b"P2\n3\n", "unexpected end of file reading height", 5),
    (b"P2\n3 x2\n255\n", "expected integer for height, got b'x2'", 5),
    (b"P2\n3#c\n-2\n255\n", "expected integer for height, got b'-2'", 7),
    (b"P2\n0 1\n255\n", "dimensions must be positive, got 0x1", 2),
    (b"P5\n1 1\n255#\n\x00", "expected single whitespace after maxval", 10),
    (b"P2\n1 1\n0\n0\n", "maxval 0 outside [1, 65535]", 7),
    (b"P5\n1 1\x0b65536\n\x00\x00", "maxval 65536 outside [1, 65535]", 7),
    (b"P5\n1 1\n255", "expected single whitespace after maxval", 10),
    (b"P5\n2 2\n255\n\x01\x02\x03", "truncated raster: need 4 bytes, have 3", 14),
    (b"P6\n1 1\n1000\n\x00\x01\x00\x02\x00", "truncated raster: need 6 bytes, have 5", 17),
    (b"P2\n2 2\n255\n1 2 3",
     "truncated raster: 4 samples need at least 7 bytes, have 6", 16),
    (b"P2\n2 1\n9\n1 # 2\n", "unexpected end of file reading sample 1", 15),
    (b"P3\n1 1\n9\n1 2\f3x", "expected integer for sample 2, got b'3x'", 13),
    (b"P2\n2 1\n10\n3 #c\n11\n", "sample 11 exceeds maxval 10", 15),
    (b"P5\n3 1\n200\n\x01\xc9\xff", "sample 201 exceeds maxval 200", 12),
    (b"P5\n3 1\n1000\n\x00\x01\x03\xe9\x00\x00", "sample 1001 exceeds maxval 1000", 14),
    (b"P2 " + b"1" * LONG + b" 1 255\n1", f"integer for width too long: {LONG} digits", 3),
    (b"P2 1 " + b"0" * LONG + b"1" * LONG + b" 255\n1",
     f"integer for height too long: {2 * LONG} digits", 5),
    (b"P5 1 1 " + b"9" * LONG + b"\n\x00", f"integer for maxval too long: {LONG} digits", 7),
    (b"P2 2 1 255\n0 " + b"1" * LONG, f"integer for sample 1 too long: {LONG} digits", 13),
], ids=["too-short", "bad-magic", "eof-in-comment", "eof-in-header", "non-digit",
        "sign-after-comment", "zero-width", "comment-after-maxval", "maxval-0", "maxval-65536",
        "eof-after-maxval", "truncated-raw", "truncated-raw-16bit", "truncated-plain",
        "eof-in-plain-raster", "non-digit-sample", "plain-above-maxval", "raw-above-maxval",
        "raw-16bit-above-maxval", "long-width", "long-zero-padded-height", "long-maxval",
        "long-plain-sample"])
def test_parse_errors_name_their_offset(data, message, offset):
    with pytest.raises(PnmParseError) as exc:
        load_pnm(data)
    assert str(exc.value) == f"{message} (byte offset {offset})"
    assert exc.value.offset == offset


_WHITESPACE = st.sampled_from([b" ", b"\t", b"\r", b"\n", b"\v", b"\f"])
_COMMENT_TEXT = st.binary(max_size=6).map(lambda b: b.replace(b"\n", b"").replace(b"\r", b""))
_SEPARATOR = st.lists(st.one_of(_WHITESPACE, st.builds(
    lambda text, end: b"#" + text + end, _COMMENT_TEXT, st.sampled_from([b"\n", b"\r"]))),
    min_size=1, max_size=3).map(b"".join)


@settings(max_examples=150, deadline=None)
@given(w=st.integers(1, 4), h=st.integers(1, 3), bands=st.sampled_from([1, 3]),
       maxval=st.sampled_from([1, 9, 255, 65535]), draw=st.data())
def test_plain_decode_matches_byte_loop_tokenizer(w, h, bands, maxval, draw):
    """Plain files with random whitespace and comments between tokens,
    a comment directly after a token included, decode to the tokens a
    literal byte loop finds, which are the ones the file was written from."""
    samples = draw.draw(st.lists(st.integers(0, maxval), min_size=w * h * bands,
                                 max_size=w * h * bands))
    written = [w, h, maxval, *samples]
    data = b"P2" if bands == 1 else b"P3"
    for value in written:
        data += draw.draw(_SEPARATOR) + b"0" * draw.draw(st.integers(0, 2)) + str(value).encode()
    data += draw.draw(st.one_of(st.just(b""), _SEPARATOR, _COMMENT_TEXT.map(lambda t: b"#" + t)))
    assert plain_pnm_tokens(data) == (data[:2], written)
    img = load_pnm(data)
    assert [img.lattice.width, img.lattice.height, img.max_value] == written[:3]
    assert img.bands == bands
    assert img.samples.reshape(-1).tolist() == written[3:]


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


@pytest.mark.parametrize("data, message", [
    (b"1,2\n3,a\n", "row 2, column 2: not an integer: 'a'"),
    (b"\n0,1\n2.5,3\n", "row 3, column 1: not an integer: '2.5'"),
    (b"0,,1\n", "row 1, column 2: not an integer: ''"),
    (b"0,1_0\n", "row 1, column 2: not an integer: '1_0'"),
    ("0,\u0663\n".encode(), "row 1, column 2: not an integer: '\u0663'"),
    (b"0,\xff\n", "not UTF-8 text: byte 2 is 0xff"),
    (b"0," + b"1" * LONG + b"\n", f"row 1, column 2: integer too long: {LONG} characters"),
    (b"0,1\n2, -" + b"9" * LONG + b" \n",
     f"row 2, column 2: integer too long: {LONG + 1} characters"),
], ids=["letter", "fraction-after-blank-line", "empty-cell", "underscore", "arabic-digit",
        "not-utf8", "long", "long-negative-with-spaces"])
def test_load_labels_names_the_bad_csv_cell(data, message):
    with pytest.raises(ValueError) as exc:
        load_labels(data)
    assert message in str(exc.value)


def test_zero_padded_integers_past_the_int_digit_limit_decode():
    """Leading zeros are dropped before conversion, so a long zero-padded
    header field, plain sample or CSV cell is the number it spells."""
    zeros = b"0" * LONG
    assert load_pnm(b"P2 1 1 255\n" + zeros + b"1").samples.tolist() == [[[1.0]]]
    img = load_pnm(b"P2 " + zeros + b"2 1 " + zeros + b"255\n" + zeros + b"7 0")
    assert (img.lattice.width, img.max_value, img.samples.ravel().tolist()) == (2, 255, [7.0, 0.0])
    assert load_pnm(b"P2 1 1 255\n" + zeros).samples.tolist() == [[[0.0]]]
    labels = load_labels(b"0," + zeros + b"1\n+" + zeros + b"2, -" + zeros + b"\n")
    assert labels.labels.tolist() == [[0, 1], [2, 0]]


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


def test_image_buffer_rejects_bools():
    """A bool is an Integral, but the PNM header would print it as
    ``True``, which ``load_pnm`` rejects."""
    with pytest.raises(ValueError, match="bands"):
        ImageBuffer(Lattice(2, 1), True, np.zeros((1, 2, 1)), 255)
    with pytest.raises(ValueError, match="max_value"):
        ImageBuffer(Lattice(2, 1), 1, np.zeros((1, 2, 1)), True)


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
