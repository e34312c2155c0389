import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcvseg.geometry import (FIVE_NEIGHBORHOOD, Lattice, NINE_NEIGHBORHOOD,
                             Window, WindowGeom, _w0_reads, dilate, square_window)
from mcvseg.reference import boundary_point, clip


def test_lattice_membership_and_size():
    lat = Lattice(3, 2)
    assert lat.size == 6
    assert (1, 1) in lat and (3, 2) in lat
    assert (0, 1) not in lat and (4, 1) not in lat and (1, 3) not in lat


def test_lattice_raster_order():
    assert list(Lattice(2, 2).pixels()) == [(1, 1), (2, 1), (1, 2), (2, 2)]


def test_lattice_rejects_empty():
    with pytest.raises(ValueError):
        Lattice(0, 4)


def test_lattice_rejects_non_integer_dimensions():
    for dims in ((2.5, 2), (2, 2.0), ("3", 2), (None, 1)):
        with pytest.raises(ValueError, match="integers"):
            Lattice(*dims)
    lat = Lattice(np.int64(3), np.uint8(2))
    assert lat.size == 6


def test_window_requires_origin():
    with pytest.raises(ValueError):
        Window(((1, 0), (0, 1)))


def test_window_rejects_non_integer_offsets():
    for offsets in (((0, 0), (1.5, 0)), ((0, 0), (1, 1.0)), ((0, 0), ("1", 0))):
        with pytest.raises(ValueError, match="integers"):
            Window(offsets)
    w = Window(((np.int64(0), np.int32(0)), (np.int8(1), 0)))
    assert w.offsets == ((0, 0), (1, 0))
    assert all(type(v) is int for offset in w.offsets for v in offset)


def test_window_dedupes_and_sorts():
    w = Window(((0, 0), (1, 0), (1, 0), (-1, 0)))
    assert w.offsets == ((-1, 0), (0, 0), (1, 0))
    assert len(w) == 3
    assert (1, 0) in w and (0, 1) not in w


def test_window_bbox_and_mask():
    w = Window(((0, 0), (2, 0), (0, -1)))
    assert w.bbox() == (0, 2, -1, 0)
    mask = w.mask()
    assert mask.shape == (2, 3)
    assert mask[1, 0] and mask[1, 2] and mask[0, 0]
    assert mask.sum() == 3
    assert not w.is_full_rectangle()


def test_square_window_counts():
    for r in range(4):
        assert len(square_window(r)) == (2 * r + 1) ** 2
    assert NINE_NEIGHBORHOOD == square_window(1)
    assert len(FIVE_NEIGHBORHOOD) == 5
    assert FIVE_NEIGHBORHOOD.is_full_rectangle() is False


def test_dilate_of_square_is_square():
    for i in range(1, 5):
        assert dilate(NINE_NEIGHBORHOOD, i) == square_window(i)


def test_dilate_identity_and_diamond():
    assert dilate(FIVE_NEIGHBORHOOD, 1) == FIVE_NEIGHBORHOOD
    d2 = dilate(FIVE_NEIGHBORHOOD, 2)
    # radius-2 taxicab ball
    assert set(d2.offsets) == {(dx, dy) for dx in range(-2, 3)
                               for dy in range(-2, 3) if abs(dx) + abs(dy) <= 2}


def test_dilate_rejects_nonpositive():
    with pytest.raises(ValueError):
        dilate(NINE_NEIGHBORHOOD, 0)


def test_clip_interior_and_corner():
    lat = Lattice(4, 4)
    assert clip(NINE_NEIGHBORHOOD, (2, 2), lat) == {
        (c, r) for c in (1, 2, 3) for r in (1, 2, 3)
    }
    assert clip(NINE_NEIGHBORHOOD, (1, 1), lat) == {(1, 1), (2, 1), (1, 2), (2, 2)}
    with pytest.raises(ValueError):
        clip(NINE_NEIGHBORHOOD, (5, 1), lat)


def cut_as_set(geom, row, col):
    """The pixels that a row cut and a column cut of ``geom`` select, as a
    1-based pixel set: the row slice times the column slice, under the
    window mask cut to both."""
    (rs, rm), (cs, cm) = row, col
    sub = None if geom.mask is None else geom.mask[rm, cm]
    return {(c + 1, r + 1)
            for r in range(rs.start, rs.stop) for c in range(cs.start, cs.stop)
            if sub is None or sub[r - rs.start, c - cs.start]}


def geom_clip_as_set(geom, x, lat):
    """The pixels that ``WindowGeom.cuts`` selects at ``x``, from its row's
    and its column's cut, as a 1-based pixel set."""
    row_cuts, col_cuts = geom.cuts(lat.height, lat.width)
    return cut_as_set(geom, row_cuts[x[1] - 1], col_cuts[x[0] - 1])


lattice_shapes = st.one_of(
    st.tuples(st.just(1), st.integers(1, 9)),
    st.tuples(st.integers(1, 9), st.just(1)),
    st.tuples(st.integers(1, 9), st.integers(1, 9)),
)
# Positions past the lattice edge clamp onto it, so edges and corners
# come up often.
positions = st.tuples(st.integers(0, 9), st.integers(0, 9))
offset = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
windows = st.one_of(
    st.lists(offset, max_size=10).map(lambda extra: Window(((0, 0), *extra))),
    st.tuples(st.integers(-3, 0), st.integers(0, 3), st.integers(-3, 0),
              st.integers(0, 3)).map(lambda b: Window(tuple(
                  (dx, dy) for dx in range(b[0], b[1] + 1)
                  for dy in range(b[2], b[3] + 1)))),
)


def on_lattice(shape, pos):
    w, h = shape
    return Lattice(w, h), (min(pos[0], w - 1) + 1, min(pos[1], h - 1) + 1)


@settings(max_examples=300, deadline=None)
@given(shape=lattice_shapes, pos=positions, win=windows)
@example(shape=(1, 6), pos=(0, 0), win=FIVE_NEIGHBORHOOD)
@example(shape=(6, 1), pos=(9, 9), win=Window(((0, 0), (2, 0), (0, -1))))
def test_window_geom_clip_matches_set_clip(shape, pos, win):
    lat, x = on_lattice(shape, pos)
    assert geom_clip_as_set(WindowGeom.of(win), x, lat) == clip(win, x, lat)


@settings(max_examples=100, deadline=None)
@given(shape=lattice_shapes, pos=positions, r=st.integers(0, 12))
@example(shape=(1, 1), pos=(0, 0), r=12)
def test_window_geom_square_matches_square_window(shape, pos, r):
    lat, x = on_lattice(shape, pos)
    assert geom_clip_as_set(WindowGeom.square(r), x, lat) == clip(square_window(r), x, lat)
    assert WindowGeom.square(r) == WindowGeom.of(square_window(r))


def _diamond(r):
    return Window(tuple((dx, dy) for dx in range(-r, r + 1) for dy in range(-r, r + 1)
                        if abs(dx) + abs(dy) <= r))


@pytest.mark.parametrize("height, width", [(1, 9), (9, 1), (5, 7)], ids=["1xN", "Nx1", "5x7"])
@pytest.mark.parametrize("win", [
    square_window(2), _diamond(3), _diamond(8), Window(((0, 0), (2, 0), (0, -1))), None,
], ids=["square2", "diamond3", "diamond8", "skewed", "square2**70"])
def test_clip_bounds_matches_clip_at_every_pixel(win, height, width):
    """At every pixel, its row's and its column's cut from
    ``WindowGeom.cuts`` cut the pixel set that the set ``clip`` selects
    there. The diamond of radius 8 and ``WindowGeom.square(2**70)``
    (``win`` None), which has no offset set and covers the whole lattice,
    overhang every lattice here."""
    lat = Lattice(width, height)
    geom = WindowGeom.square(2 ** 70) if win is None else WindowGeom.of(win)
    row_cuts, col_cuts = geom.cuts(height, width)
    assert (len(row_cuts), len(col_cuts)) == (height, width)
    for r in range(height):
        for c in range(width):
            expected = set(lat.pixels()) if win is None else clip(win, (c + 1, r + 1), lat)
            assert cut_as_set(geom, row_cuts[r], col_cuts[c]) == expected


@pytest.mark.parametrize("height, width", [(1, 9), (9, 1), (5, 7)], ids=["1xN", "Nx1", "5x7"])
@pytest.mark.parametrize("win", [
    NINE_NEIGHBORHOOD, FIVE_NEIGHBORHOOD, square_window(2), _diamond(3),
    Window(((0, 0), (2, 0), (-2, 0), (0, 2), (0, -2))), Window(((0, 0), (1, 0), (-1, 2))),
], ids=["3x3", "cross", "square2", "diamond3", "far-cross", "one-sided"])
def test_w0_reads_hold_exactly_the_clipped_window(win, height, width):
    """Row p of ``_w0_reads`` reads pixel p first and then only pixels of
    its clipped window, each of them: an off-lattice offset reads the
    pixel itself, never the nearest edge pixel, which may lie outside the
    window."""
    lat = Lattice(width, height)
    reads = _w0_reads(win, height, width)
    assert reads.dtype == np.int32 and reads.shape == (height * width, len(win))
    for p, row in enumerate(reads.tolist()):
        r, c = divmod(p, width)
        assert row[0] == p
        assert {(q % width + 1, q // width + 1) for q in row} == clip(win, (c + 1, r + 1), lat)


def test_w0_reads_refuse_indices_past_int32():
    """A lattice of more than 2**31 pixels is refused before any table is
    built."""
    with pytest.raises(ValueError, match="too large for int32"):
        _w0_reads(NINE_NEIGHBORHOOD, 2 ** 16, 2 ** 15 + 1)


@settings(max_examples=100, deadline=None)
@given(win=windows)
def test_window_mask_is_cached_read_only_grid(win):
    arr = np.array(win.offsets)
    (x0, y0), (x1, y1) = arr.min(axis=0), arr.max(axis=0)
    fresh = np.zeros((y1 - y0 + 1, x1 - x0 + 1), dtype=bool)
    fresh[arr[:, 1] - y0, arr[:, 0] - x0] = True
    mask = win.mask()
    assert win.bbox() == (x0, x1, y0, y1)
    assert np.array_equal(mask, fresh) and mask.dtype == bool
    assert win.mask() is mask
    with pytest.raises(ValueError):
        mask[0, 0] = not mask[0, 0]


def test_boundary_point_half_split():
    lat = Lattice(4, 2)
    left = {(1, 1), (2, 1), (1, 2), (2, 2)}
    assert boundary_point((2, 1), left, NINE_NEIGHBORHOOD, lat)
    assert boundary_point((3, 1), left, NINE_NEIGHBORHOOD, lat)
    assert not boundary_point((1, 1), left, NINE_NEIGHBORHOOD, lat)


def test_boundary_point_full_lattice_region():
    lat = Lattice(3, 3)
    region = set(lat.pixels())
    assert not any(boundary_point(x, region, NINE_NEIGHBORHOOD, lat)
                   for x in lat.pixels())
