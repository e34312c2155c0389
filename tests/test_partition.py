import numpy as np
import pytest

from mcvseg.geometry import (FIVE_NEIGHBORHOOD, Lattice, NINE_NEIGHBORHOOD,
                             Window)
from mcvseg.partition import (ABSENT, Partition, canonicalize,
                              components_by_class, connected_components,
                              m_step, merge_step, same_partition, singletons,
                              singletons_full)
from mcvseg.pnmio import load_labels, save_labels

from oracles import bfs_components, merge_sets

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
        order = list(pixels)
        rng.shuffle(order)
        p = connected_components(pixels, NINE_NEIGHBORHOOD, order, lat)
        expected = bfs_components(pixels, NINE_NEIGHBORHOOD.offsets, 8, 8)
        assert blocks_as_sets(p) == expected


def test_connected_components_four_vs_eight():
    lat = Lattice(2, 2)
    diag = {(1, 1), (2, 2)}
    p8 = connected_components(diag, NINE_NEIGHBORHOOD, sorted(diag), lat)
    p4 = connected_components(diag, FIVE_NEIGHBORHOOD, sorted(diag), lat)
    assert p8.block_count() == 1
    assert p4.block_count() == 2


def test_connected_components_rejects_bad_order():
    lat = Lattice(2, 1)
    with pytest.raises(ValueError):
        connected_components({(1, 1), (2, 1)}, NINE_NEIGHBORHOOD, [(1, 1)], lat)


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
