"""Partitions as dense label maps: the relabel pass the level driver's
merges end in, the sequential connected-component algorithm built on
the block-merging operator, and canonical renumbering.

A partition lives on the whole lattice or on a subset of it; pixels
outside the domain carry the reserved ABSENT marker. Blocks are the
maximal sets of pixels sharing a label. No region lists are kept between
operations: adjacency is always recomputed locally from the label map.
The driver's merges, and the paper's merging operator and windowed merge
(``reference.m_step`` and ``reference.merge_step``), all end in
``_relabel``, one vectorized pass through a bool table over labels;
both component labelings instead run the operator through ``_fuse_along``,
which fuses small blocks into large ones through explicit pixel lists,
bounding its work, and never fuses across the visited pixel's class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import Lattice, Pixel, Window, WindowGeom

ABSENT = -1


@dataclass
class Partition:
    """Dense label-map representation of a partition.

    ``labels[row, col]`` is the 0-based storage for the 1-based (col, row)
    lattice; ABSENT marks pixels outside the partition's domain. Labels
    are int32; a fractional or out-of-range label raises ValueError.
    Two partitions are equal when their lattices and labels are.
    """

    lattice: Lattice
    labels: np.ndarray

    def __post_init__(self):
        labels, lim = np.asarray(self.labels), np.iinfo(np.int32)
        if labels.dtype.kind == "f" and (labels != np.trunc(labels)).any():
            raise ValueError("labels must be whole numbers")
        if labels.dtype != lim.dtype and not (
                lim.min <= labels.min(initial=0) <= labels.max(initial=0) <= lim.max):
            raise ValueError(f"labels must lie in {lim.min}..{lim.max}")
        self.labels = labels.astype(np.int32, copy=False)
        expected = (self.lattice.height, self.lattice.width)
        if self.labels.shape != expected:
            raise ValueError(f"label array shape {self.labels.shape} != {expected}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.lattice == other.lattice and np.array_equal(self.labels, other.labels)

    @property
    def is_total(self) -> bool:
        return bool(np.all(self.labels != ABSENT))

    def label_at(self, x: Pixel) -> int:
        return int(self.labels[self.lattice.index(x)])

    def block_count(self) -> int:
        present = self.labels[self.labels != ABSENT]
        return int(np.unique(present).size)

    def blocks(self) -> dict[int, set[Pixel]]:
        """Label -> block pixel set. Intended for small partitions and tests."""
        out: dict[int, set[Pixel]] = {}
        rows, cols = np.nonzero(self.labels != ABSENT)
        for r, c in zip(rows, cols):
            out.setdefault(int(self.labels[r, c]), set()).add((int(c) + 1, int(r) + 1))
        return out


def _window_labels(labels: np.ndarray, rs: slice, cs: slice, sub: np.ndarray | None) -> np.ndarray:
    """Labels under a window cut out of the lattice by ``WindowGeom.cut``."""
    block = labels[rs, cs]
    return block if sub is None else block[sub]


def _relabel(labels: np.ndarray, rs: slice, cs: slice, sub: np.ndarray | None,
             table: np.ndarray, fresh: int) -> None:
    """In place, give the label ``fresh`` to every pixel of
    ``labels[rs, cs]`` (under ``sub`` when given) whose entry in ``table``,
    a bool array indexed by label, is set. The flags are gathered through a
    C-contiguous copy of the region, NumPy's fast path (a contiguous region
    is not copied): it holds the region's labels, so the flags are the same
    values, and ``fresh`` is still written through the view, into ``labels``."""
    region = labels[rs, cs]
    sel = table[np.ascontiguousarray(region)]
    if sub is not None:
        sel &= sub
    region[sel] = fresh


def singletons(S: Iterable[Pixel], lat: Lattice) -> Partition:
    """Partition of S into single-pixel blocks, labeled in raster order."""
    labels = np.full((lat.height, lat.width), ABSENT, dtype=np.int32)
    ordered = sorted(set(S), key=lambda p: (p[1], p[0]))
    for i, x in enumerate(ordered):
        labels[lat.index(x)] = i
    return Partition(lat, labels)


def singletons_full(lat: Lattice) -> Partition:
    """Every lattice pixel its own block; labels are raster indices."""
    labels = np.arange(lat.size, dtype=np.int32).reshape(lat.height, lat.width)
    return Partition(lat, labels)


def _fuse_along(labels: np.ndarray, classes: np.ndarray, w0: Window,
                rows: np.ndarray, cols: np.ndarray) -> None:
    """In place, apply the merging operator at each pixel (rows[i],
    cols[i]) in turn within its class: the blocks in its clipped w0-window
    that share its class fuse into the largest of them, which keeps total
    relabel work O(N log N). ``labels`` starts as singletons numbered in
    raster order (block k holds the k-th present pixel), ABSENT elsewhere."""
    blocks = [[f] for f in np.flatnonzero(labels != ABSENT).tolist()]
    view = labels.ravel()
    geom = WindowGeom.of(w0)
    bounds = geom.clip_bounds(rows, cols, *labels.shape).tolist()
    for r, c, row in zip(rows.tolist(), cols.tolist(), bounds):
        cut = geom.cut(row)
        same = _window_labels(classes, *cut) == classes[r, c]
        members = sorted(set(_window_labels(labels, *cut)[same].tolist()))
        if len(members) < 2:
            continue
        target = max(members, key=lambda lab: len(blocks[lab]))
        for lab in members:
            if lab != target:
                view[blocks[lab]] = target
                blocks[target].extend(blocks[lab])
                blocks[lab] = []


def connected_components(S: Iterable[Pixel], w0: Window,
                         order: Sequence[Pixel], lat: Lattice) -> Partition:
    """Connected components of S under w0-adjacency, computed by repeated
    application of the merging operator along ``order``.

    ``order`` must be a permutation of S. The final partition is the same
    for every choice of order.
    """
    pixel_set = set(S)
    if len(order) != len(pixel_set) or set(order) != pixel_set:
        raise ValueError("order must be a permutation of S")
    labels = singletons(pixel_set, lat).labels
    cols, rows = np.array(order, dtype=np.int64).reshape(-1, 2).T - 1
    _fuse_along(labels, labels != ABSENT, w0, rows, cols)
    return Partition(lat, labels)


def components_by_class(cm: Partition, w0: Window) -> Partition:
    """Connected components of every constant-class set of a class map,
    combined into one total partition in canonical form: one raster pass
    of the merging operator, each step within its pixel's class. Blocks
    never mix classes."""
    labels = singletons_full(cm.lattice).labels
    rows, cols = np.divmod(np.arange(labels.size), labels.shape[1])
    _fuse_along(labels, cm.labels, w0, rows, cols)
    return canonicalize(Partition(cm.lattice, labels))


def canonicalize(p: Partition) -> Partition:
    """Renumber labels 0, 1, 2, ... by first occurrence in raster order.

    Two partitions are equivalent labelings iff their canonical forms have
    identical label arrays. Idempotent; absent pixels stay absent.

    No sort is needed where the labels span at most 2N values on N
    pixels, as every level's labels do: ``np.minimum.at`` writes each
    label's first raster index into a table over the span, one gather
    through it gives every pixel that index, and a label's rank is the
    count of pixels up to it that are the first of their label. A wider
    span is first compressed by ``np.unique``, which keeps the labels'
    order and so their first occurrences.
    """
    flat = p.labels.ravel()
    mask = flat != ABSENT
    out = np.full_like(flat, ABSENT)
    present = flat[mask].astype(np.intp)
    if present.size:
        lo = int(present.min())
        if int(present.max()) - lo >= 2 * flat.size:
            present = np.unique(present, return_inverse=True)[1]
            lo = 0
        present -= lo
        index = np.arange(present.size)
        first = np.full(int(present.max()) + 1, present.size, dtype=np.intp)
        np.minimum.at(first, present, index)
        first = first[present]
        out[mask] = (np.cumsum(first == index, dtype=np.int32) - 1)[first]
    return Partition(p.lattice, out.reshape(p.labels.shape))


def same_partition(p1: Partition, p2: Partition) -> bool:
    """True iff the two partitions are equal up to relabeling."""
    if p1.lattice != p2.lattice:
        return False
    return bool(np.array_equal(canonicalize(p1).labels, canonicalize(p2).labels))
