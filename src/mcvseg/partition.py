"""Partitions as dense label maps: the relabel pass every merge ends in,
connected components, and canonical renumbering.

A partition lives on the whole lattice or on a subset of it; pixels
outside the domain carry the reserved ABSENT marker. Blocks are the
maximal sets of pixels sharing a label. No region lists are kept between
operations: adjacency is always recomputed locally from the label map.
Every merge, the driver's and the paper's operators in ``reference``,
ends in ``_relabel``, one vectorized pass through a bool table over
labels. The merging operator applied at every pixel leaves the connected
components whatever the order; both component labelings compute that
fixpoint at once (``_components``) over the driver's read table.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

import numpy as np

from .geometry import Lattice, Pixel, Window, _w0_reads

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
    """Partition of S into single-pixel blocks, labeled in raster order:
    the pixels' sorted raster indices take the labels 0, 1, 2, ...
    A pixel off the lattice raises ValueError, naming the first one in
    raster order, and a coordinate that is not an integer TypeError."""
    pixels = list(set(S))
    xy = np.fromiter(map(operator.index, chain.from_iterable(pixels)), dtype=np.int64)
    cols, rows = xy.reshape(-1, 2).T
    off = np.flatnonzero((cols < 1) | (cols > lat.width) | (rows < 1) | (rows > lat.height))
    if off.size:
        lat.index(pixels[off[np.lexsort((cols[off], rows[off]))[0]]])
    labels = np.full(lat.size, ABSENT, dtype=np.int32)
    labels[np.sort((rows - 1) * lat.width + cols - 1)] = np.arange(len(pixels), dtype=np.int32)
    return Partition(lat, labels.reshape(lat.height, lat.width))


def singletons_full(lat: Lattice) -> Partition:
    """Every lattice pixel its own block; labels are raster indices."""
    labels = np.arange(lat.size, dtype=np.int32).reshape(lat.height, lat.width)
    return Partition(lat, labels)


def _components(classes: np.ndarray, w0: Window) -> np.ndarray:
    """The w0-connected components of each class of ``classes``: every
    pixel gets the raster index of its component's first pixel.

    The reads are ``_w0_reads`` of w0 and its mirror image, as the
    merging operator joins a pixel to the pixels it reads and to those
    that read it, and a read of another class reads the pixel itself.
    Each round, every root takes the smallest root its pixels read
    (``np.minimum.at`` on a copy of the parents), and pointer jumping
    points every pixel at its root again. Roots only move down, so no
    cycle forms and a root stays its component's smallest pixel. The loop
    stops when no read finds a smaller root: no read leaves its
    component, the fixpoint of ``reference.m_step`` at every pixel.
    """
    h, w = classes.shape
    reads = _w0_reads(Window(w0.offsets + tuple((-dx, -dy) for dx, dy in w0.offsets)), h, w)
    flat = classes.ravel()
    reads = np.where(flat[reads] == flat[:, None], reads, reads[:, :1])
    parent = np.arange(flat.size)
    while True:
        low = parent[reads].min(axis=1)
        if not (low < parent).any():
            return parent.reshape(h, w)
        hooked = parent.copy()
        np.minimum.at(hooked, parent, low)
        parent, up = hooked, hooked[hooked]
        while not np.array_equal(up, parent):
            parent, up = up, up[up]


def connected_components(S: Iterable[Pixel], w0: Window, lat: Lattice) -> Partition:
    """Connected components of S under w0-adjacency, in canonical form:
    the partition that the merging operator leaves after visiting every
    pixel of S, in any order."""
    labels = singletons(S, lat).labels
    roots = _components(labels != ABSENT, w0)
    roots[labels == ABSENT] = ABSENT
    return canonicalize(Partition(lat, roots))


def components_by_class(cm: Partition, w0: Window) -> Partition:
    """Connected components of every constant-class set of a class map,
    combined into one total partition in canonical form. Blocks never
    mix classes."""
    return canonicalize(Partition(cm.lattice, _components(cm.labels, w0)))


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
