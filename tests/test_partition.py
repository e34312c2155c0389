import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcvseg.geometry import (FIVE_NEIGHBORHOOD, Lattice, NINE_NEIGHBORHOOD,
                             Window, WindowGeom, dilate, square_window)
from mcvseg.partition import (ABSENT, Partition, _components, _relabel, canonicalize,
                              components_by_class, connected_components,
                              same_partition, singletons, singletons_full)
from mcvseg.pnmio import load_labels, save_labels
from mcvseg.reference import _label_table, m_step, merge_step

from oracles import (bfs_components, first_occurrence_reference, merge_sets,
                     relabel_reference, serpentine_map, singletons_reference, spiral_map)

LINE3 = Window(((0, 0), (-1, 0), (1, 0)))


def random_mask_pixels(rng, w, h, fill=0.5):
    picks = rng.random((h, w)) < fill
    return {(c + 1, r + 1) for r in range(h) for c in range(w) if picks[r, c]}


def blocks_as_sets(p):
    return {frozenset(b) for b in p.blocks().values()}


def test_singletons_raster_labels():
    p = singletons({(1, 1), (2, 2)}, Lattice(2, 2))
    assert p.label_at((1, 1)) == 0
    assert p.label_at((2, 2)) == 1
    assert p.label_at((2, 1)) == ABSENT
    assert not p.is_total
    with pytest.raises(TypeError):  # not truncated to pixel (1, 1)
        singletons({(1.5, 1)}, Lattice(2, 2))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5),
       st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6)), max_size=40))
@example(2, 2, [])
@example(3, 2, [(2, 2), (1, 2), (2, 2), (3, 1)])
# (4, 1) is the first off-lattice pixel in raster order, (0, 2) in column order
@example(3, 2, [(2, 1), (0, 2), (1, 2), (2, 1), (4, 1)])
def test_singletons_matches_per_pixel_loop(width, height, pixels):
    """``singletons`` labels the same pixels as a loop over the sorted
    distinct pixels, duplicates and the empty set included, or raises
    the same ValueError naming the same first off-lattice pixel."""
    lat = Lattice(width, height)
    try:
        want = singletons_reference(pixels, width, height)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            singletons(pixels, lat)
        assert str(got.value) == str(e)
    else:
        got = singletons(pixels, lat).labels
        assert got.dtype == np.int32 and np.array_equal(got, want)


@pytest.mark.parametrize("x", [(0, 0), (4, 1), (1, 3)])
def test_off_lattice_pixels_rejected(x):
    """A pixel off the lattice has no label; it must not wrap around to
    the last row or column."""
    p = singletons_full(Lattice(3, 2))
    with pytest.raises(ValueError, match="outside 3x2 lattice"):
        p.label_at(x)
    with pytest.raises(ValueError, match="outside 3x2 lattice"):
        m_step(x, p, NINE_NEIGHBORHOOD)
    assert p.is_total and p.block_count() == 6


@pytest.mark.parametrize("sides", [(True, 2), (2, False), (np.int64(2), True)])
def test_lattice_rejects_bool_sides(sides):
    """A bool is an Integral, but a label map's header would print it as
    ``True``, which no reader takes back."""
    with pytest.raises(ValueError, match="lattice sides must be integers"):
        Lattice(*sides)
    lat = Lattice(np.int64(2), 1)
    assert load_labels(save_labels(singletons_full(lat), "pgm16")).lattice == lat


def test_singletons_full_is_total():
    p = singletons_full(Lattice(3, 2))
    assert p.is_total
    assert p.block_count() == 6


def test_m_step_fuses_window_blocks():
    lat = Lattice(3, 1)
    p = singletons(set(lat.pixels()), lat)
    out = m_step((2, 1), p, LINE3)
    assert out.block_count() == 1
    # input untouched
    assert p.block_count() == 3


def test_m_step_is_coarser():
    rng = np.random.default_rng(0)
    lat = Lattice(6, 6)
    for _ in range(20):
        pixels = random_mask_pixels(rng, 6, 6)
        if not pixels:
            continue
        p = singletons(pixels, lat)
        # a few fusions first so blocks are nontrivial
        order = sorted(pixels)
        for x in order[::3]:
            p = m_step(x, p, NINE_NEIGHBORHOOD)
        x = order[len(order) // 2]
        out = m_step(x, p, NINE_NEIGHBORHOOD)
        fine = blocks_as_sets(p)
        for block in blocks_as_sets(out):
            covered = set()
            for b in fine:
                if b <= block:
                    covered |= b
            assert covered == set(block)


def test_connected_components_matches_bfs():
    rng = np.random.default_rng(1)
    lat = Lattice(8, 8)
    for _ in range(30):
        pixels = random_mask_pixels(rng, 8, 8)
        if not pixels:
            continue
        p = connected_components(pixels, NINE_NEIGHBORHOOD, lat)
        expected = bfs_components(pixels, NINE_NEIGHBORHOOD.offsets, 8, 8)
        assert blocks_as_sets(p) == expected
        assert p == canonicalize(p)


def test_connected_components_four_vs_eight():
    lat = Lattice(2, 2)
    diag = {(1, 1), (2, 2)}
    p8 = connected_components(diag, NINE_NEIGHBORHOOD, lat)
    p4 = connected_components(diag, FIVE_NEIGHBORHOOD, lat)
    assert p8.block_count() == 1
    assert p4.block_count() == 2


def m_step_fixpoint(pixels, w0, lat, rng):
    """The paper's merging operator applied once at every pixel of
    ``pixels``, along a random order, starting from singletons."""
    p = singletons(pixels, lat)
    for i in rng.permutation(len(pixels)).tolist():
        p = m_step(pixels[i], p, w0)
    return p


ODD_WINDOWS = {
    "square2": square_window(2),
    "diamond2": dilate(FIVE_NEIGHBORHOOD, 2),
    "far-cross": Window(((0, 0), (2, 0), (-2, 0), (0, 2), (0, -2))),
    "one-sided": Window(((0, 0), (1, 0), (-1, 2))),
}


@pytest.mark.parametrize("w0", ODD_WINDOWS.values(), ids=ODD_WINDOWS)
def test_components_match_m_step_on_odd_windows(w0):
    """On windows other than the 3x3 block and the cross, both labelings
    give the partition that ``reference.m_step`` leaves along a random
    order. The masked diamond and the far cross, which is not closed
    under dropping a coordinate, fail if a read past the lattice edge
    lands on the edge pixel; the one-sided window fails if a pixel only
    joins the pixels that it reads, and not the pixels that read it."""
    rng = np.random.default_rng(len(w0))
    for _ in range(15):
        w, h = (int(v) for v in rng.integers(1, 11, size=2))
        lat = Lattice(w, h)
        pixels = sorted(random_mask_pixels(rng, w, h, fill=rng.uniform(0.2, 0.8)))
        if pixels:
            got = connected_components(pixels, w0, lat)
            assert blocks_as_sets(got) == blocks_as_sets(m_step_fixpoint(pixels, w0, lat, rng))
            assert got == canonicalize(got)
        classes = rng.integers(0, 3, size=(h, w))
        expected = set()
        for cls in np.unique(classes).tolist():
            pixels = [(c + 1, r + 1) for r, c in zip(*np.nonzero(classes == cls))]
            expected |= blocks_as_sets(m_step_fixpoint(pixels, w0, lat, rng))
        assert blocks_as_sets(components_by_class(Partition(lat, classes), w0)) == expected


@pytest.mark.parametrize("w0", [NINE_NEIGHBORHOOD, FIVE_NEIGHBORHOOD], ids=["8n", "4n"])
@pytest.mark.parametrize("make", [spiral_map, serpentine_map], ids=["spiral", "serpentine"])
def test_components_follow_long_paths(make, w0):
    """A 256x256 spiral and serpentine, whose components run the length
    of the map, label as flood fill does, each in under 2 s."""
    classes = make(256)
    lat = Lattice(256, 256)
    ones = [(c + 1, r + 1) for r, c in zip(*np.nonzero(classes))]
    t0 = time.perf_counter()
    by_class = components_by_class(Partition(lat, classes), w0)
    path = connected_components(ones, w0, lat)
    elapsed = time.perf_counter() - t0
    zeros = [(c + 1, r + 1) for r, c in zip(*np.nonzero(classes == 0))]
    expected = bfs_components(ones, w0.offsets, 256, 256)
    assert blocks_as_sets(path) == expected
    expected |= bfs_components(zeros, w0.offsets, 256, 256)
    assert blocks_as_sets(by_class) == expected
    assert elapsed < 2.0, f"{elapsed:.2f}s"


def test_components_refuse_indices_past_int32():
    """The labeling reads through ``_w0_reads``, which refuses a lattice
    past int32 before it builds a table; the zero-stride class map holds
    one value."""
    classes = np.broadcast_to(np.int32(0), (2 ** 16, 2 ** 15 + 1))
    with pytest.raises(ValueError, match="too large for int32"):
        _components(classes, NINE_NEIGHBORHOOD)


def test_components_by_class_two_tone():
    lat = Lattice(4, 1)
    cm = Partition(lat, np.array([[7, 7, 3, 3]]))
    p = components_by_class(cm, NINE_NEIGHBORHOOD)
    assert p.is_total
    assert blocks_as_sets(p) == {
        frozenset({(1, 1), (2, 1)}),
        frozenset({(3, 1), (4, 1)}),
    }


def test_components_by_class_never_mixes_classes():
    rng = np.random.default_rng(2)
    lat = Lattice(6, 6)
    cm = Partition(lat, rng.integers(0, 3, size=(6, 6)).astype(np.int32))
    p = components_by_class(cm, NINE_NEIGHBORHOOD)
    for block in p.blocks().values():
        classes = {int(cm.labels[r - 1, c - 1]) for c, r in block}
        assert len(classes) == 1


def test_components_by_class_matches_bfs_per_class_and_is_canonical():
    """Random class maps with up to about 200 classes, noise or blocks,
    under both neighborhoods: the blocks are the flood-fill components of
    each class, and the labels are already in first-occurrence order."""
    rng = np.random.default_rng(11)
    for trial in range(40):
        w, h = (int(v) for v in rng.integers(1, 17, size=2))
        k = int(rng.integers(1, 201))
        classes = rng.integers(0, k, size=(h, w))
        if trial % 2:
            tiles = rng.integers(0, k, size=(h // 3 + 1, w // 3 + 1))
            classes = np.repeat(np.repeat(tiles, 3, 0), 3, 1)[:h, :w]
        cm = Partition(Lattice(w, h), classes)
        for w0 in (NINE_NEIGHBORHOOD, FIVE_NEIGHBORHOOD):
            p = components_by_class(cm, w0)
            expected = set()
            for cls in np.unique(classes).tolist():
                pixels = [(c + 1, r + 1) for r, c in zip(*np.nonzero(classes == cls))]
                expected |= bfs_components(pixels, w0.offsets, w, h)
            assert blocks_as_sets(p) == expected
            rows = p.labels.tolist()
            assert rows == first_occurrence_reference(rows, ABSENT)


def test_merge_step_documented_split():
    # two 3-pixel runs on a 1x6 line; merging at pixel 3 with 1-wide
    # windows splits off both leftovers
    lat = Lattice(6, 1)
    p = Partition(lat, np.array([[0, 0, 0, 1, 1, 1]], dtype=np.int32))
    out = merge_step((3, 1), p, LINE3, LINE3)
    assert blocks_as_sets(out) == {
        frozenset({(1, 1)}),
        frozenset({(2, 1), (3, 1), (4, 1)}),
        frozenset({(5, 1), (6, 1)}),
    }


def test_merge_step_identity_when_alone():
    lat = Lattice(3, 3)
    p = Partition(lat, np.zeros((3, 3), dtype=np.int32))
    out = merge_step((2, 2), p, NINE_NEIGHBORHOOD, NINE_NEIGHBORHOOD)
    assert same_partition(out, p)


def test_merge_step_matches_set_oracle():
    rng = np.random.default_rng(3)
    lat = Lattice(7, 5)
    for _ in range(60):
        labels = rng.integers(0, 5, size=(5, 7)).astype(np.int32)
        p = Partition(lat, labels)
        x = (int(rng.integers(1, 8)), int(rng.integers(1, 6)))
        w0 = NINE_NEIGHBORHOOD if rng.random() < 0.5 else FIVE_NEIGHBORHOOD
        psi = Window(tuple((dx, dy)
                           for dx in range(-2, 3) for dy in range(-2, 3)))
        blocks = blocks_as_sets(p)
        expected = merge_sets(blocks, x, w0.offsets, psi.offsets, 7, 5)
        got = merge_step(x, p, w0, psi)
        assert blocks_as_sets(got) == expected


def test_partition_rejects_labels_outside_int32():
    lat = Lattice(2, 1)
    for bad in ([[0, 2**32 + 5]], [[-(2**31) - 1, 0]], [[0, 2**70]]):
        with pytest.raises(ValueError, match="labels must lie in"):
            Partition(lat, np.array(bad))
    wide = Partition(lat, np.array([[-(2**31), 2**31 - 1]], dtype=np.int64))
    assert wide.labels.dtype == np.int32
    assert wide.labels.tolist() == [[-(2**31), 2**31 - 1]]
    exact = np.array([[3, 4]], dtype=np.int32)
    assert Partition(lat, exact).labels is exact


def test_partition_rejects_fractional_labels():
    """A fractional label would be cut by the int32 cast, fusing 0.5 and
    0.7 into one block; whole-number floats keep their blocks."""
    lat = Lattice(2, 1)
    for bad in ([[0.5, 0.7]], [[0.0, 1.5]], [[np.nan, 1.0]]):
        with pytest.raises(ValueError, match="whole numbers"):
            Partition(lat, np.array(bad))
    whole = Partition(lat, np.array([[0.0, -1.0]]))
    assert whole.labels.dtype == np.int32 and whole.labels.tolist() == [[0, -1]]


def test_merges_take_negative_and_large_labels():
    """The per-call label tables cover negative and large labels: the
    merges treat them like any other labels."""
    rng = np.random.default_rng(8)
    lat = Lattice(6, 5)
    odd = np.array([-9, -5, 0, 7, 2**20])
    psi = Window(tuple((dx, dy) for dx in range(-1, 3) for dy in range(-2, 2)))
    for _ in range(40):
        codes = rng.integers(0, 5, size=(5, 6))
        x = (int(rng.integers(1, 7)), int(rng.integers(1, 6)))
        w0 = NINE_NEIGHBORHOOD if rng.random() < 0.5 else FIVE_NEIGHBORHOOD
        p = Partition(lat, odd[codes])
        expected = merge_sets(blocks_as_sets(p), x, w0.offsets, psi.offsets, 6, 5)
        assert blocks_as_sets(merge_step(x, p, w0, psi)) == expected
        holes = np.where(rng.random((5, 6)) < 0.3, ABSENT, odd[codes])
        holes[x[1] - 1, x[0] - 1] = odd[codes[x[1] - 1, x[0] - 1]]
        compact = np.where(holes == ABSENT, ABSENT, codes)
        got = m_step(x, Partition(lat, holes), w0)
        assert same_partition(got, m_step(x, Partition(lat, compact), w0))
        assert np.array_equal(got.labels == ABSENT, holes == ABSENT)


RELABEL_WINDOWS = [square_window(0), square_window(1), square_window(2), square_window(9),
                   dilate(FIVE_NEIGHBORHOOD, 2), dilate(FIVE_NEIGHBORHOOD, 4), LINE3,
                   Window(((0, 0), (2, 0), (0, -1), (-1, 3)))]


@st.composite
def relabel_cases(draw):
    """A label map with ABSENT pixels, a window (a square, a holed
    diamond, a line, a one-sided holed window, or a square that covers
    the whole lattice from any pixel) at a pixel, and a target set drawn from another pixel's 3x3
    window: its labels without ABSENT, as ``m_step`` takes them, or with
    it."""
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    cells = st.one_of(st.just(ABSENT), st.integers(0, 2 * h * w - 1))
    labels = np.array(draw(st.lists(cells, min_size=h * w, max_size=h * w)),
                      dtype=np.int32).reshape(h, w)
    window = draw(st.sampled_from(RELABEL_WINDOWS))
    r0, c0, tr, tc = (draw(st.integers(0, n - 1)) for n in (h, w, h, w))
    targets = labels[max(tr - 1, 0) : tr + 2, max(tc - 1, 0) : tc + 2].ravel()
    if draw(st.booleans()):
        targets = targets[targets != ABSENT]
    return labels, window, r0, c0, targets


@settings(max_examples=200, deadline=None)
@given(relabel_cases(), st.sampled_from([(np.int32, "C"), (np.intp, "C"), (np.intp, "F")]))
def test_relabel_matches_per_pixel_reference(case, layout):
    """``_relabel`` on the ``WindowGeom.cut`` of a row and a column cut, at
    interior, edge and corner pixels and over the whole lattice, gives
    the per-pixel loop's labels, in any array layout, and leaves the
    labels outside the window and its table as they were."""
    labels, window, r0, c0, targets = case
    h, w = labels.shape
    geom = WindowGeom.of(window)
    row_cuts, col_cuts = geom.cuts(h, w)
    rs, cs, sub = geom.cut(row_cuts[r0], col_cuts[c0])
    table = _label_table(labels, targets)
    before, fresh = table.copy(), int(labels.max()) + 1
    work = np.array(labels, dtype=layout[0], order=layout[1])
    _relabel(work, rs, cs, sub, table, fresh)
    expected = relabel_reference(labels.tolist(), (c0 + 1, r0 + 1), window.offsets,
                                 set(targets.tolist()), fresh)
    assert work.tolist() == expected
    outside = np.ones((h, w), dtype=bool)
    outside[rs, cs] = False
    assert np.array_equal(work[outside], labels[outside])
    assert np.array_equal(table, before)


def test_merge_step_requires_total():
    lat = Lattice(2, 1)
    p = singletons({(1, 1)}, lat)
    with pytest.raises(ValueError):
        merge_step((1, 1), p, NINE_NEIGHBORHOOD, NINE_NEIGHBORHOOD)


def test_canonicalize_first_occurrence():
    lat = Lattice(3, 1)
    p = Partition(lat, np.array([[9, 4, 9]], dtype=np.int32))
    out = canonicalize(p)
    assert out.labels.tolist() == [[0, 1, 0]]
    again = canonicalize(out)
    assert np.array_equal(again.labels, out.labels)


def test_canonicalize_keeps_absent():
    lat = Lattice(3, 1)
    p = Partition(lat, np.array([[ABSENT, 5, 5]], dtype=np.int32))
    out = canonicalize(p)
    assert out.labels.tolist() == [[ABSENT, 0, 0]]


INT32 = np.iinfo(np.int32)


@st.composite
def label_maps(draw):
    """A 1xN, Nx1 or square label map. Its labels come from a span of at
    most 2N values starting at -3..0, where ``canonicalize`` renumbers
    through a table, or anywhere in int32, edges included, where it
    compresses the labels first; both kinds hold ABSENT."""
    n = draw(st.integers(1, 9))
    h, w = draw(st.sampled_from([(1, n), (n, 1), (n, n)]))
    low = draw(st.integers(-3, 0))
    narrow = st.integers(low, low + 2 * h * w - 1)
    wide = st.one_of(st.sampled_from([INT32.min, INT32.min + 1, INT32.max - 1, INT32.max,
                                      -2, 2 * h * w]),
                     st.integers(INT32.min, INT32.max))
    labels = st.one_of(st.just(ABSENT), draw(st.sampled_from([narrow, wide])))
    cells = draw(st.lists(labels, min_size=h * w, max_size=h * w))
    return np.array(cells, dtype=np.int32).reshape(h, w)


@settings(max_examples=300, deadline=None)
@given(label_maps())
def test_canonicalize_matches_first_occurrence_reference(labels):
    h, w = labels.shape
    out = canonicalize(Partition(Lattice(w, h), labels)).labels
    assert out.dtype == np.int32
    assert out.tolist() == first_occurrence_reference(labels.tolist(), ABSENT)


@pytest.mark.parametrize("span, compressed", [(8, False), (9, True)])
def test_canonicalize_compresses_only_spans_over_twice_the_pixels(span, compressed):
    """Four pixels whose labels span 8 values renumber through a table;
    a span of 9 is compressed by ``np.unique`` first."""
    labels = np.array([[5, 5 + span - 1], [ABSENT, 5]], dtype=np.int32)
    with mock.patch.object(np, "unique", wraps=np.unique) as spy:
        out = canonicalize(Partition(Lattice(2, 2), labels)).labels
    assert out.tolist() == [[0, 1], [ABSENT, 0]]
    assert spy.called == compressed


def test_same_partition_relabel_invariance():
    lat = Lattice(2, 2)
    a = Partition(lat, np.array([[0, 0], [1, 1]], dtype=np.int32))
    b = Partition(lat, np.array([[5, 5], [2, 2]], dtype=np.int32))
    c = Partition(lat, np.array([[5, 2], [5, 2]], dtype=np.int32))
    assert same_partition(a, b)
    assert not same_partition(a, c)


def test_label_image_round_trip():
    lat = Lattice(2, 2)
    p = Partition(lat, np.array([[0, 1], [1, 0]], dtype=np.int32))
    again = load_labels(save_labels(p))
    assert np.array_equal(again.labels, p.labels)
    partial = singletons({(1, 1)}, lat)
    with pytest.raises(ValueError):
        save_labels(partial)
