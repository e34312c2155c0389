"""The wired feed-forward net: pyramid layers on bare arrays.

A window is scored directly, or its resolution is lowered step by step
down a coarse-ward window chain (``check_chain``) to the base
neighborhood, where the energy is thresholded as ``mrf.evaluate`` does.
Each step is one layer of plain means over the model's neighborhood
(``mrf._neighbor_means``, which is the AR predictor too): nothing is
learned, every weight is wired to one. ``pyramid_evaluate`` runs the net
on one window, and ``verdict_map`` slides it over a whole image as a
convolution, whose last mean layer is the energy per pixel.
"""

from __future__ import annotations

import numpy as np

from .geometry import Offset, Window, dilate
from .mrf import MrfModel, _as_bands, _neighbor_means, _site_terms, evaluate


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


def _on_window(values, mask, window: Window) -> tuple[np.ndarray, np.ndarray]:
    """The arrays, checked to cover ``window``'s bounding box, with the
    mask (None for all of it) cut to the window and the values zeroed
    off it."""
    box = window.mask()
    mask = box if mask is None else np.asarray(mask, dtype=bool)
    values = np.asarray(values, dtype=np.float64)
    if mask.shape[-2:] != box.shape or values.shape[:-1] != mask.shape:
        raise ValueError(f"values {values.shape} and mask {mask.shape} miss window box {box.shape}")
    mask = mask & box
    return values * mask[..., None], mask


def downsample(values: np.ndarray, mask: np.ndarray, src_window: Window,
               out_window: Window, g: Window) -> tuple[np.ndarray, np.ndarray]:
    """One resolution-lowering step.

    ``values`` (..., h, w, bands) and ``mask`` (..., h, w) cover
    ``src_window``'s bounding box, with any leading batch axes; mask
    positions outside the window are ignored. Each position of
    ``out_window`` takes the mean of its sampled g-neighbors (origin
    included). Returns the values and mask over ``out_window``'s
    bounding box; positions with no sampled neighbor come out masked off.
    """
    values, mask = _on_window(values, mask, src_window)
    ox0, _, oy0, _ = out_window.bbox()
    sx0, _, sy0, _ = src_window.bbox()
    return _neighbor_means([(values, mask)], [(d, 0) for d in g.offsets],
                           out_window.mask(), oy0 - sy0, ox0 - sx0)


def make_pyramid_evaluator(model: MrfModel, max_level: int) -> tuple[Window, ...]:
    """The standard window chain dilate(g, i), i = max_level..1, with g
    the model's neighborhood."""
    return check_chain(dilate(model.neighborhood, i) for i in range(max_level, 0, -1))


def pyramid_evaluate(values: np.ndarray, levels, model: MrfModel,
                     mask: np.ndarray | None = None) -> int:
    """Feed one window through the net and threshold: ``values``
    (h, w[, bands]) and ``mask`` (None for the whole window) cover the
    bounding box of the chain's first window. With one window this is
    ``mrf.evaluate`` on the window."""
    levels = check_chain(levels)
    values, mask = _on_window(_as_bands(values), mask, levels[0])
    for src, dst in zip(levels, levels[1:]):
        values, mask = downsample(values, mask, src, dst, model.neighborhood)
    return evaluate(values, model, mask)


def _reads(ids: dict, o: Offset, offsets) -> tuple[tuple[Offset, int], ...]:
    """The (offset, map id) reads of window position ``o`` at ``offsets``,
    in order, skipping the positions that ``ids`` holds no map for."""
    return tuple((d, ids[q]) for d in offsets if (q := (o[0] + d[0], o[1] + d[1])) in ids)


def verdict_map(samples: np.ndarray, levels, model: MrfModel) -> np.ndarray:
    """``pyramid_evaluate`` of every pixel's window of the (h, w[, bands])
    image, as an (h, w) bool array; with one window in ``levels``, that
    is ``evaluate`` on the clipped window.

    The net slides over the image padded by the first window's reach.
    Map 0 is the image. Window positions that read alike, the same
    (g offset, map id) of each g-neighbor inside the source window,
    share one whole-image ``_neighbor_means`` map. So does the energy
    per pixel: that last mean layer reads, per base-window position in
    row-major box order, a ``_site_terms`` map keyed by its center map
    and its neighbors' reads. Only reads and terms of +0.0 are left
    out, so the verdicts are bitwise ``pyramid_evaluate``'s."""
    levels = check_chain(levels)
    vals = _as_bands(samples)
    h, w, _ = vals.shape
    x0, x1, y0, y1 = levels[0].bbox()
    reach = ((-y0, y1), (-x0, x1))
    inside = np.pad(np.ones((h, w), dtype=bool), reach)
    maps = [(np.pad(vals, reach + ((0, 0),)), inside)]
    everywhere = np.ones_like(inside)
    ids = dict.fromkeys(levels[0].offsets, 0)  # window position -> map id
    g = model.neighborhood.offsets
    for dst in levels[1:]:
        keys = {o: _reads(ids, o, g) for o in dst.offsets}
        distinct = {key: i for i, key in enumerate(dict.fromkeys(keys.values()))}
        maps = [_neighbor_means(maps, key, everywhere) for key in distinct]
        ids = {o: distinct[key] for o, key in keys.items()}
    nbrs = model.neighbor_offsets()
    keys = {o: (ids[o], _reads(ids, o, nbrs)) for o in sorted(ids, key=lambda o: (o[1], o[0]))}
    distinct = {key: i for i, key in enumerate(dict.fromkeys(keys.values()))}
    terms = [(_site_terms(maps[k][0], *_neighbor_means(maps, reads, maps[k][1]), model)[..., None],
              maps[k][1]) for k, reads in distinct]
    energy, _ = _neighbor_means(terms, [(o, distinct[key]) for o, key in keys.items()],
                                np.ones((h, w), dtype=bool), -y0, -x0)
    return energy[..., 0] <= model.rho
