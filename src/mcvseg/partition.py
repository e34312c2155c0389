"""Partitions as dense label maps: the block-merging operator, the
sequential connected-component algorithm built on it, and the windowed
merge operation used by the level driver.

A partition lives on the whole lattice or on a subset of it; pixels
outside the domain carry the reserved ABSENT marker. Blocks are the
maximal sets of pixels sharing a label. No region lists are kept between
operations: adjacency is always recomputed locally from the label map.
The merging operator and the windowed merge both end in ``_relabel``,
one vectorized pass; ``connected_components`` instead fuses small blocks
into large ones through explicit pixel lists, which bounds its work.
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
    lattice; ABSENT marks pixels outside the partition's domain.
    """

    lattice: Lattice
    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int32)
        expected = (self.lattice.height, self.lattice.width)
        if self.labels.shape != expected:
            raise ValueError(f"label array shape {self.labels.shape} != {expected}")

    def copy(self) -> Partition:
        return Partition(self.lattice, self.labels.copy())

    @property
    def is_total(self) -> bool:
        return bool(np.all(self.labels != ABSENT))

    def label_at(self, x: Pixel) -> int:
        c, r = x
        return int(self.labels[r - 1, c - 1])

    def block_count(self) -> int:
        present = self.labels[self.labels != ABSENT]
        return int(np.unique(present).size)

    def present_pixels(self) -> set[Pixel]:
        rows, cols = np.nonzero(self.labels != ABSENT)
        return {(int(c) + 1, int(r) + 1) for r, c in zip(rows, cols)}

    def blocks(self) -> dict[int, set[Pixel]]:
        """Label -> block pixel set. Intended for small partitions and tests."""
        out: dict[int, set[Pixel]] = {}
        rows, cols = np.nonzero(self.labels != ABSENT)
        for r, c in zip(rows, cols):
            out.setdefault(int(self.labels[r, c]), set()).add((int(c) + 1, int(r) + 1))
        return out


def _window_labels(labels: np.ndarray, x: Pixel, geom: WindowGeom) -> np.ndarray:
    """Labels under the window at ``x``, clipped to the lattice."""
    rs, cs, sub = geom.clip(x[1] - 1, x[0] - 1, *labels.shape)
    block = labels[rs, cs]
    return block if sub is None else block[sub]


def _relabel(labels: np.ndarray, rs: slice, cs: slice, sub: np.ndarray | None,
             targets: np.ndarray, fresh: int) -> None:
    """In place, give the label ``fresh`` to every pixel of
    ``labels[rs, cs]`` (under ``sub`` when given) whose label is in
    ``targets``."""
    region = labels[rs, cs]
    sel = np.isin(region, targets)
    if sub is not None:
        sel &= sub
    region[sel] = fresh


def singletons(S: Iterable[Pixel], lat: Lattice) -> Partition:
    """Partition of S into single-pixel blocks, labeled in raster order."""
    labels = np.full((lat.height, lat.width), ABSENT, dtype=np.int32)
    ordered = sorted(set(S), key=lambda p: (p[1], p[0]))
    for i, (c, r) in enumerate(ordered):
        if (c, r) not in lat:
            raise ValueError(f"pixel {(c, r)} outside {lat.width}x{lat.height} lattice")
        labels[r - 1, c - 1] = i
    return Partition(lat, labels)


def singletons_full(lat: Lattice) -> Partition:
    """Every lattice pixel its own block; labels are raster indices."""
    labels = np.arange(lat.size, dtype=np.int32).reshape(lat.height, lat.width)
    return Partition(lat, labels)


def m_step(x: Pixel, p: Partition, w0: Window) -> Partition:
    """One application of the block-merging operator at ``x``: every block
    meeting the clipped w0-window of ``x`` (within the domain) fuses into
    the block of ``x``; all other blocks pass through.

    The result is a partition of the same domain, coarser than or equal to
    the input, and it preserves connectedness of blocks.
    """
    target = p.label_at(x)
    if target == ABSENT:
        raise ValueError(f"pixel {x} is not in the partition domain")
    members = _window_labels(p.labels, x, WindowGeom.of(w0))
    out = p.labels.copy()
    _relabel(out, slice(None), slice(None), None, members[members != ABSENT], target)
    return Partition(p.lattice, out)


def _fuse_at(labels: np.ndarray, blocks: list[list[int]], sizes: list[int],
             window_labels: np.ndarray) -> None:
    """In-place operator step on the list-backed label map: fuse every
    block with a pixel in the window into the largest of them.
    Relabeling smaller blocks into the largest keeps total relabel work
    O(N log N) over a full run."""
    members = np.unique(window_labels[window_labels != ABSENT])
    if members.size < 2:
        return
    target = int(members[0])
    for lab in members[1:]:
        if sizes[int(lab)] > sizes[target]:
            target = int(lab)
    view = labels.ravel()
    for lab in members:
        lab = int(lab)
        if lab == target:
            continue
        for f in blocks[lab]:
            view[f] = target
        blocks[target].extend(blocks[lab])
        sizes[target] += sizes[lab]
        blocks[lab] = []
        sizes[lab] = 0


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
    p = singletons(pixel_set, lat)
    labels = p.labels
    width = lat.width
    blocks: list[list[int]] = []
    sizes: list[int] = []
    for c, r in sorted(pixel_set, key=lambda q: (q[1], q[0])):
        blocks.append([(r - 1) * width + (c - 1)])
        sizes.append(1)
    geom = WindowGeom.of(w0)
    for x in order:
        _fuse_at(labels, blocks, sizes, _window_labels(labels, x, geom))
    return Partition(lat, labels)


def components_by_class(cm: Partition, w0: Window) -> Partition:
    """Connected components of every constant-class set of a class map,
    combined into one total partition. Blocks never mix classes."""
    lat = cm.lattice
    out = np.full((lat.height, lat.width), ABSENT, dtype=np.int32)
    next_label = 0
    for cls in np.unique(cm.labels):
        rows, cols = np.nonzero(cm.labels == cls)
        pixels = [(int(c) + 1, int(r) + 1) for r, c in zip(rows, cols)]
        part = connected_components(pixels, w0, pixels, lat)
        sub = part.labels != ABSENT
        relabeled, inverse = np.unique(part.labels[sub], return_inverse=True)
        out[sub] = inverse.astype(np.int32) + next_label
        next_label += relabeled.size
    return Partition(lat, out)


def merge_step(x: Pixel, p: Partition, w0: Window, psi: Window) -> Partition:
    """Windowed merge at ``x``: blocks meeting the w0-window contribute
    their pixels inside the psi-window to one new block; what falls outside
    the psi-window stays behind as residue blocks under the old labels.

    The merged block always contains ``x``; residues may be disconnected
    and empty residues vanish. Regions can split as well as merge, so the
    result need not be coarser than the input.
    """
    if x not in p.lattice:
        raise ValueError(f"pixel {x} outside {p.lattice.width}x{p.lattice.height} lattice")
    if not p.is_total:
        raise ValueError("merge_step requires a total partition")
    out = p.labels.copy()
    targets = _window_labels(out, x, WindowGeom.of(w0))
    rs, cs, sub = WindowGeom.of(psi).clip(x[1] - 1, x[0] - 1, *out.shape)
    _relabel(out, rs, cs, sub, targets, int(out.max()) + 1)
    return Partition(p.lattice, out)


def canonicalize(p: Partition) -> Partition:
    """Renumber labels 0, 1, 2, ... by first occurrence in raster order.

    Two partitions are equivalent labelings iff their canonical forms have
    identical label arrays. Idempotent; absent pixels stay absent.
    """
    flat = p.labels.ravel()
    mask = flat != ABSENT
    out = np.full_like(flat, ABSENT)
    if mask.any():
        uniq, first_idx, inverse = np.unique(flat[mask], return_index=True, return_inverse=True)
        rank = np.empty(uniq.size, dtype=np.int32)
        rank[np.argsort(first_idx, kind="stable")] = np.arange(uniq.size, dtype=np.int32)
        out[mask] = rank[inverse]
    return Partition(p.lattice, out.reshape(p.labels.shape))


def same_partition(p1: Partition, p2: Partition) -> bool:
    """True iff the two partitions are equal up to relabeling."""
    if p1.lattice != p2.lattice:
        return False
    return bool(np.array_equal(canonicalize(p1).labels, canonicalize(p2).labels))
