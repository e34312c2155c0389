import numpy as np
import pytest

from mcvseg.geometry import Lattice
from mcvseg.partition import Partition, rand_index, region_size_histogram, singletons

from oracles import rand_brute


def as_partition(rows):
    arr = np.asarray(rows, dtype=np.int32)
    return Partition(Lattice(arr.shape[1], arr.shape[0]), arr)


def test_identical_partitions_score_one():
    p = as_partition([[0, 1], [1, 2]])
    assert rand_index(p, p) == 1.0


def test_two_pixel_disagreement_scores_zero():
    p1 = as_partition([[0, 1]])
    p2 = as_partition([[3, 3]])
    assert rand_index(p1, p2) == 0.0


def test_three_pixel_one_third():
    p1 = as_partition([[0, 0, 1]])
    p2 = as_partition([[0, 1, 1]])
    assert rand_index(p1, p2) == pytest.approx(1.0 / 3.0)


def test_symmetry_and_relabel_invariance():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 4, size=(5, 5)).astype(np.int32)
    b = rng.integers(0, 4, size=(5, 5)).astype(np.int32)
    p1, p2 = as_partition(a), as_partition(b)
    assert rand_index(p1, p2) == rand_index(p2, p1)
    shuffled = as_partition((a * 7 + 3) % 97)
    assert rand_index(shuffled, p2) == rand_index(p1, p2)


def test_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(30):
        h = int(rng.integers(1, 5))
        w = int(rng.integers(2, 9))
        a = rng.integers(0, 5, size=(h, w)).astype(np.int32)
        b = rng.integers(0, 5, size=(h, w)).astype(np.int32)
        assign1 = {(c, r): int(a[r - 1, c - 1])
                   for r in range(1, h + 1) for c in range(1, w + 1)}
        assign2 = {(c, r): int(b[r - 1, c - 1])
                   for r in range(1, h + 1) for c in range(1, w + 1)}
        assert rand_index(as_partition(a), as_partition(b)) == \
            rand_brute(assign1, assign2)


def test_rejects_mismatched_lattices():
    with pytest.raises(ValueError):
        rand_index(as_partition([[0, 1]]), as_partition([[0], [1]]))


def test_rejects_partial_partitions():
    lat = Lattice(2, 1)
    partial = singletons({(1, 1)}, lat)
    total = as_partition([[0, 0]])
    with pytest.raises(ValueError):
        rand_index(partial, total)


def test_rejects_single_pixel():
    with pytest.raises(ValueError):
        rand_index(as_partition([[0]]), as_partition([[0]]))


def test_histogram_singletons():
    lat = Lattice(3, 3)
    p = singletons(set(lat.pixels()), lat)
    assert region_size_histogram(p) == [1] * 9


def test_histogram_one_block():
    p = as_partition(np.zeros((4, 4), dtype=np.int32))
    assert region_size_histogram(p) == [16]


def test_histogram_descending():
    p = as_partition([[0, 0, 1, 2, 2], [0, 1, 1, 2, 2]])
    assert region_size_histogram(p) == [3, 3, 4]
    assert region_size_histogram(p, descending=True) == [4, 3, 3]
    assert sum(region_size_histogram(p)) == p.lattice.size
