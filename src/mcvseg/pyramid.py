"""The autoregressive Gaussian MRF and its wired feed-forward net, on
bare arrays.

The model (``MrfModel``) scores a patch by its energy: the summed
squared deviation of each in-region pixel from the mean of its
in-region neighbors. A patch is acceptable when the energy per pixel is
at most ``rho``. The homogeneity test is a net with every weight wired
to one, nothing learned. The AR predictor is one of its layers:
``_frame_means`` predicts each pixel for the energy and gives every
pyramid layer alike, and with ``_add_shifted`` and ``_site_terms`` it
is one of the kernels that every map of the net is built from.

A window is scored directly, or its resolution is lowered step by step
down a coarse-ward window chain (``check_chain``) to the base
neighborhood, where the energy is thresholded as
``reference.evaluate`` does. Each step is one layer of plain means over
the model's neighborhood. ``verdict_maps`` slides the net over a whole
image as a convolution, for every chain of a run at once
(``verdict_map`` for one), through one ``_NetMaps``, the run's cache of
whole-image maps: it pads the image once into one frame, names each map
by an id under its key, and builds every term map over one term span.
The net on one window, ``reference.pyramid_evaluate``, is the reference
this fast path is tested against, bit for bit.

Why exact: an id names one key and a key one map, so a map built once
is the map each chain would build for itself. A map position depends
only on the image at the positions its reads reach; for a position that
a chain reads, they lie in that chain's first window around a lattice
pixel, so inside any pad of that reach, and off the lattice the image
map is 0 with its mask off at any pad. Every map lies on the one frame,
the padded image stored flat with one row stride, where a read at
(dx, dy) is the contiguous slice at offset dy * stride + dx. For a
position that a chain reads, every read lies on the frame, so it is the
read at (dx, dy): it neither runs past a row end nor leaves the frame,
and the position gets the same adds, in the same order, as on a 2-D
array with reads clipped at its edges. A position whose reads would run
past a row end wraps into the next row instead, and one whose reads
would leave the frame gets none; no chain reads such a position, and
its values are means and sums of finite values, so finite. The term
span, the frame positions from the first to the last of the union of
every chain's base-window box around the lattice, holds every position
a chain reads of a term map, and those lie inside the pad, since
``check_chain`` puts each chain's base window inside its first. The
energy sums run over the frame rows of the lattice, and their columns
off it, which read past row ends, are dropped before the divide. So
neither the one pad, the flat reads nor the one term span changes a
value that is read. ``_ordered_sum`` adds a term's bands in order, and
the energy adds the terms in the order of ``reference.pyramid_evaluate``,
leaving out only reads of +0.0, and ``x + 0.0 == x``. The size is an
exact integer count of the window's in-region positions, the count
``reference.evaluate`` divides by, and at least 1, since every window
holds the origin and each layer reads its own position. So every
verdict is bitwise the per-window net's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .geometry import NINE_NEIGHBORHOOD, Offset, Window, dilate

#: CLI spellings accepted for the two deviation metrics.
METRIC_ALIASES = {
    "euclidean": "euclidean",
    "per_band_abs": "per_band_abs",
    "l2": "euclidean",
    "l1": "per_band_abs",
}


@dataclass(frozen=True)
class MrfModel:
    """Neighborhood, metric, temperature and energy threshold.

    The neighborhood window contains the origin (as every Window does);
    the origin is skipped in the autoregressive sum, which predicts each
    pixel by the plain mean of its neighbors inside the region. ``rho``
    thresholds the per-pixel normalized energy.
    """

    neighborhood: Window = NINE_NEIGHBORHOOD
    metric: str = "euclidean"
    temperature: float = 1.0
    rho: float = 0.0

    def __post_init__(self):
        metrics = tuple(dict.fromkeys(METRIC_ALIASES.values()))
        if self.metric not in metrics:
            raise ValueError(f"metric must be one of {metrics}, got {self.metric!r}")
        for name in ("temperature", "rho"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise TypeError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if not self.rho >= 0:
            raise ValueError(f"rho must be nonnegative, got {self.rho}")

    def neighbor_offsets(self) -> list[Offset]:
        """Non-origin offsets used by the AR sum."""
        return [o for o in self.neighborhood.offsets if o != (0, 0)]


def _as_bands(values: np.ndarray) -> np.ndarray:
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim == 2:
        vals = vals[:, :, None]
    if vals.ndim != 3:
        raise ValueError(f"patch must be (h, w) or (h, w, b), got shape {vals.shape}")
    if vals.shape[2] == 0:
        raise ValueError("patch has no bands")
    return vals


def _add_shifted(out: np.ndarray, sources, reads: Iterable[tuple[int, object]], start: int):
    """Add to ``out`` in place, one read at a time in order, each (o, k)
    read: the ``len(out)`` rows of ``sources[k]`` from row ``start + o``,
    one contiguous slice. This is the only code that adds shifted
    arrays: every mean layer of the net, the AR predictor and the energy
    sum of ``verdict_maps``."""
    for o, k in reads:
        out += sources[k][start + o : start + o + len(out)]


def _frame_means(sources: Mapping[object, tuple[np.ndarray, np.ndarray]],
                 reads: Iterable[tuple[Offset, object]], out_mask: np.ndarray,
                 stride: int, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """One layer of the net on a frame, a C-order (rows, ``stride``)
    lattice stored flat: per-band means (n, bands) of the in-mask reads
    at the n frame positions from ``start`` that the (n,) ``out_mask``
    covers, and the mask, off where a position has no read. ``sources``
    maps a key to a (values, mask) pair over the whole frame, (N, bands)
    values zero off the (N,) mask. Each ((dx, dy), k) read, in order,
    adds source k at frame position p + dy * stride + dx, one contiguous
    slice: past a row end it wraps into the next row, and a position
    with a read off either end of the frame gets no read at all. The sum
    is divided once. Every zero mean is +0.0.

    Why exact: the reads are counted in the smallest unsigned dtype that
    holds their number, so no count wraps, and a count converts to float
    exactly. Off the mask the sum is divided by +inf, which gives a zero
    of the sum's sign for any finite sum; the one ``+= 0.0`` pass makes
    every -0.0 +0.0 and leaves every other value as it is. On the mask
    the quotient is the sum divided once by its count; it is -0.0 only
    when a negative sum underflows, and no caller tells that from +0.0:
    a mean is only added to a sum that starts at +0.0 or put in a
    difference whose square or absolute value is taken. This form skips
    NumPy's masked divide and float counts, its slow paths."""
    (values, mask), n = next(iter(sources.values())), len(out_mask)
    reads = [(dy * stride + dx, k) for (dx, dy), k in reads]
    lo = max(0, -start - min((o for o, _ in reads), default=0))
    hi = max(lo, min(n, len(mask) - start - max((o for o, _ in reads), default=0)))
    sums = np.zeros((n, values.shape[1]))
    counts = np.zeros(n, dtype=np.min_scalar_type(len(reads)))
    _add_shifted(sums[lo:hi], {k: v for k, (v, _) in sources.items()}, reads, start + lo)
    _add_shifted(counts[lo:hi], {k: m for k, (_, m) in sources.items()}, reads, start + lo)
    present = out_mask & (counts > 0)
    means = sums / np.where(present, counts, np.inf)[:, None]
    means += 0.0
    return means, present


def _neighbor_means(sources: Mapping[object, tuple[np.ndarray, np.ndarray]],
                    reads: Iterable[tuple[Offset, object]], out_mask: np.ndarray,
                    dy0: int = 0, dx0: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """One layer of the net on small patches: per-band means (..., h, w,
    bands) of the in-mask reads at each (..., h, w) ``out_mask``
    position, and the mask, off where a position has no read. Position
    (i, j) sits at source position (i + dy0, j + dx0). ``sources`` maps
    a key to a (values, mask) pair, all of one shape, (..., hs, ws,
    bands) values zero off the (..., hs, ws) mask. Each ((dx, dy), k)
    read, in order, adds source k at (i + dy0 + dy, j + dx0 + dx), or
    nothing off the source; the sum is divided once. Every zero mean is
    +0.0. This is ``_frame_means`` on one frame: every patch zero-padded
    to hold each output position and its reads, so no read of one wraps
    or leaves the frame, and the patches of the batch axes stacked as
    rows."""
    reads = list(reads)
    mask, (h, w) = next(iter(sources.values()))[1], out_mask.shape
    p = max(h + abs(dy0), w + abs(dx0)) + max((max(map(abs, d)) for d, _ in reads), default=0)
    pad = ((0, 0),) * (mask.ndim - 2) + ((p, p), (p, p))
    on = np.zeros_like(np.pad(mask, pad))
    at = (..., slice(p + dy0, p + dy0 + h), slice(p + dx0, p + dx0 + w))
    on[at] = out_mask
    frame = {k: (np.pad(v, pad + ((0, 0),)).reshape(-1, v.shape[-1]), np.pad(m, pad).ravel())
             for k, (v, m) in sources.items()}
    means, present = _frame_means(frame, reads, on.ravel(), on.shape[-1])
    return means.reshape(*on.shape, -1)[(*at, slice(None))], present.reshape(on.shape)[at]


def _ordered_sum(x: np.ndarray) -> np.ndarray:
    """Sums over the last axis, adding one element at a time from the
    first, unlike ``np.sum``, whose order depends on the array's length
    and layout. It adds along the axis in a loop: the correctly rounded
    adds of a sequential ``np.add.accumulate`` in its order, so bitwise
    the same sums, at a fraction of the cost of accumulating along a short
    strided axis."""
    total = x[..., 0]
    for i in range(1, x.shape[-1]):
        total = total + x[..., i]
    return total


def _site_terms(vals: np.ndarray, pred: np.ndarray, has: np.ndarray,
                model: MrfModel) -> np.ndarray:
    """Per-pixel energy terms as a dense map, from the AR prediction
    ``pred`` of ``vals`` and its mask ``has`` (a mean layer over the
    region): zero at every pixel outside the region or without an
    in-region neighbor. The zeros leave a window's ordered sum
    unchanged, since ``x + 0.0 == x``."""
    diff = pred - vals
    if model.metric == "euclidean":
        return _ordered_sum(diff * diff) * has
    return np.square(_ordered_sum(np.abs(diff))) * has


def check_chain(levels) -> tuple[Window, ...]:
    """``levels`` as a tuple, checked to be a coarse-ward window chain:
    at least one window, each strictly containing the next."""
    levels = tuple(levels)
    if not levels:
        raise ValueError("a window chain needs at least one window")
    for i, (fine, coarse) in enumerate(zip(levels, levels[1:])):
        if not set(coarse.offsets) < set(fine.offsets):
            raise ValueError(f"window chain does not shrink strictly at window {i + 1}")
    return levels


def make_pyramid_evaluator(model: MrfModel, max_level: int) -> tuple[Window, ...]:
    """The standard window chain dilate(g, i), i = max_level..1, with g
    the model's neighborhood."""
    return check_chain(dilate(model.neighborhood, i) for i in range(max_level, 0, -1))


def verdict_map(samples: np.ndarray, levels, model: MrfModel) -> np.ndarray:
    """``reference.pyramid_evaluate`` of every pixel's window of the
    (h, w[, bands]) image, as an (h, w) bool array; with one window in
    ``levels``, that is ``evaluate`` on the clipped window. This is
    ``verdict_maps`` of the one chain."""
    return verdict_maps(samples, [levels], model)[0]


def verdict_maps(samples: np.ndarray, chains, model: MrfModel) -> list[np.ndarray]:
    """``verdict_map`` of each chain of ``chains``, in order, all from one
    ``_NetMaps`` cache, which is dropped on return. A chain that repeats
    gets the same array."""
    chains = [check_chain(levels) for levels in chains]
    if not chains:
        return []
    verdicts = _NetMaps(_as_bands(samples), chains, model).verdicts()
    return [verdicts[levels] for levels in chains]


def _boxes(mask: np.ndarray) -> list[list[int]]:
    """The set cells of a 2-D bool array as disjoint [c0, c1, r0, r1]
    boxes, bounds included: each row's runs of set cells, a run merged
    into the box of the same run on the row above."""
    edges = np.diff(mask.astype(np.int8), axis=1, prepend=0, append=0)
    rows, starts = np.nonzero(edges == 1)
    stops = np.nonzero(edges == -1)[1] - 1
    boxes, latest = [], {}
    for r, c0, c1 in zip(rows.tolist(), starts.tolist(), stops.tolist()):
        box = latest.get((c0, c1))
        if box is not None and box[3] == r - 1:
            box[3] = r
        else:
            latest[c0, c1] = box = [c0, c1, r, r]
            boxes.append(box)
    return boxes


class _NetMaps:
    """One run's cache of the net's whole-image maps, for the window
    chains it is given in level order.

    The image is padded once by the largest reach of any chain's first
    window into the run's frame, stored flat in C order with one row
    stride that every map shares; map 0 is that image with its lattice
    mask. Every other map is interned under its key, a kind and the ids
    of the maps it reads, one per read offset in order, -1 for none. A
    ``"layer"`` map is the ``_frame_means`` of its g-neighbor reads over
    the whole frame. A ``"terms"`` map, keyed by its center map's id and
    then its reads, is the ``_site_terms`` of the center map and the
    means of its non-origin g-neighbor reads, on the center's mask,
    built over the run's term span: the frame positions from the first
    to the last of the union of the bounding boxes of every chain's base
    window around the lattice, the positions any energy reads a term map
    at. Window positions that read alike share one map, within a chain
    and across the chains of a run. Before any map is built, every chain
    is planned in order on a grid of window positions: each key is
    interned once, and its map is built with the first chain that reads
    it and dropped after the last one (through a map built for that
    chain, or its energy). The energy of a chain adds, per base-window
    position in row-major order, that position's term map; each
    window's size is the integer count of its center maps' masks over
    it, from a prefix-sum table per center map and a few boxes of
    window positions (``_boxes``).
    """

    def __init__(self, vals: np.ndarray, chains: list[tuple[Window, ...]], model: MrfModel):
        h, w, bands = vals.shape
        firsts, bases = ([levels[i].bbox() for levels in chains] for i in (0, -1))
        (x0, _, y0, _), (_, x1, _, y1) = np.min(firsts, 0).tolist(), np.max(firsts, 0).tolist()
        inside = np.pad(np.ones((h, w), dtype=bool), reach := ((-y0, y1), (-x0, x1)))
        self.shape, self.origin, self.model = (h, w), (-y0, -x0), model
        self.stride = stride = inside.shape[1]
        self.start = start = -y0 * stride - x0  # the frame position of lattice pixel (0, 0)
        (x0, _, y0, _), (_, x1, _, y1) = np.min(bases, 0).tolist(), np.max(bases, 0).tolist()
        self.span = slice(start + y0 * stride + x0, start + (y1 + h - 1) * stride + x1 + w)
        self.everywhere = np.ones(inside.size, dtype=bool)
        self.keys: list = [None]  # map id -> key; map 0 is the image
        self.ids = {"layer": {}, "terms": {}}  # kind -> row of source ids -> map id
        self.last = [0]  # map id -> index of the last distinct chain that reads it
        # chain -> (ids of the maps it builds, its energy plan)
        self.plans = {c: self._plan(c, n) for n, c in enumerate(dict.fromkeys(chains))}
        # map id -> (values, mask) of the image or a layer map over the
        # frame, or a term map's values over the term span
        self.maps = {0: (np.pad(vals, reach + ((0, 0),)).reshape(-1, bands), inside.ravel())}

    def _intern(self, kind: str, reads: np.ndarray, n: int) -> np.ndarray:
        """The map id of each row of source ids of ``reads``, under key
        (kind, row); a key new to the ``n``-th distinct chain is
        interned, and its sources are read by that chain."""
        table = self.ids[kind]
        rows = list(map(tuple, reads.tolist()))
        for row in dict.fromkeys(rows):
            if row not in table:
                table[row] = len(self.keys)
                self.keys.append((kind, row))
                self.last.append(n)
                for k in row:
                    if k >= 0:
                        self.last[k] = n
        return np.array([table[row] for row in rows])

    def _plan(self, levels: tuple[Window, ...], n: int):
        """Intern the maps of chain ``levels``, the ``n``-th distinct one.
        Returns the ids of the maps it interns, and its energy's plan:
        the (frame offset, term map id) reads in row-major order, and per
        center map id, the boxes of offsets whose term maps are on that
        center."""
        first = len(self.keys)
        g = np.array(self.model.neighborhood.offsets)
        d = np.array([(0, 0), *self.model.neighbor_offsets()])  # a term's center, then its reads
        x0, x1, y0, y1 = levels[0].bbox()
        r = int(np.abs(g).max())
        gy, gx = r - y0, r - x0  # the grid cell of window position (0, 0)
        grid = np.full((y1 + gy + r + 1, x1 + gx + r + 1), -1)  # window position -> map id
        for i, win in enumerate(levels):
            rows, cols = np.nonzero(win.mask())
            rows, cols = rows + win.bbox()[2] + gy, cols + win.bbox()[0] + gx
            ids = 0 if i == 0 else self._intern(
                "layer", grid[rows[:, None] + g[:, 1], cols[:, None] + g[:, 0]], n)
            grid = np.full_like(grid, -1)
            grid[rows, cols] = ids
        reads = grid[rows[:, None] + d[:, 1], cols[:, None] + d[:, 0]]
        centers = reads[:, 0]
        terms = self._intern("terms", reads, n)
        for k in set(terms.tolist()) | set(centers.tolist()):
            self.last[k] = n
        offsets = ((rows - gy) * self.stride + cols - gx).tolist()
        sizes = {c: [(c0 - gx, c1 - gx, r0 - gy, r1 - gy) for c0, c1, r0, r1 in _boxes(grid == c)]
                 for c in dict.fromkeys(centers.tolist())}
        return range(first, len(self.keys)), (list(zip(offsets, terms.tolist())), sizes)

    def _build(self, i: int):
        """Map ``i``: a layer's (values, mask) over the frame, or a term
        map's values over the term span."""
        kind, ids = self.keys[i]
        if kind == "layer":
            reads = [(d, k) for d, k in zip(self.model.neighborhood.offsets, ids) if k >= 0]
            sources = {k: self.maps[k] for _, k in reads}
            return _frame_means(sources, reads, self.everywhere, self.stride)
        (vals, mask), span = self.maps[ids[0]], self.span  # ids[0] is the center map
        reads = [(d, k) for d, k in zip(self.model.neighbor_offsets(), ids[1:]) if k >= 0]
        sources = {k: self.maps[k] for k in (ids[0], *(k for _, k in reads))}
        pred = _frame_means(sources, reads, mask[span], self.stride, span.start)
        return _site_terms(vals[span], *pred, self.model)

    def _energy(self, plan) -> np.ndarray:
        """The energy per pixel of one chain, (h, w): the term sums of its
        plan over the window sizes. The sums run over the frame rows of
        the lattice, and their wrapped columns are dropped."""
        reads, sizes = plan
        (h, w), (oy, ox), stride = self.shape, self.origin, self.stride
        sums = np.zeros((h, stride))
        _add_shifted(sums.reshape(-1)[: (h - 1) * stride + w], self.maps, reads,
                     self.start - self.span.start)
        size = np.zeros((h, w), dtype=np.int64)
        for center, boxes in sizes.items():
            mask = self.maps[center][1].reshape(-1, stride)
            table = np.zeros((mask.shape[0] + 1, stride + 1), dtype=np.int64)
            np.cumsum(mask.cumsum(0), 1, out=table[1:, 1:])
            for x0, x1, y0, y1 in boxes:
                r0, r1, c0, c1 = oy + y0, oy + y1 + 1, ox + x0, ox + x1 + 1
                size += (table[r1 : r1 + h, c1 : c1 + w] - table[r0 : r0 + h, c1 : c1 + w]
                         - table[r1 : r1 + h, c0 : c0 + w] + table[r0 : r0 + h, c0 : c0 + w])
        return sums[:, :w] / size

    def verdicts(self) -> dict:
        """Each distinct chain's (h, w) bool verdict map, energy per pixel
        at most ``rho``, building and dropping maps as planned."""
        dead: list[list[int]] = [[] for _ in self.plans]
        for i, n in enumerate(self.last):
            dead[n].append(i)
        out = {}
        for n, (levels, (new, plan)) in enumerate(self.plans.items()):
            for i in new:
                self.maps[i] = self._build(i)
            out[levels] = self._energy(plan) <= self.model.rho
            for i in dead[n]:
                del self.maps[i]
        return out
