"""The wired feed-forward net: pyramid layers on bare arrays.

A window is scored directly, or its resolution is lowered step by step
down a coarse-ward window chain (``check_chain``) to the base
neighborhood, where the energy is thresholded as ``mrf.evaluate`` does.
Each step is one layer of plain means over the model's neighborhood
(``mrf._neighbor_means``, which is the AR predictor too): nothing is
learned, every weight is wired to one. ``pyramid_evaluate`` runs the net
on one window, the reference the fast path is tested against, and
``verdict_maps`` slides it over a whole image as a convolution, for
every chain of a run at once (``verdict_map`` for one), through the
run's cache of whole-image maps (``netmaps``).
"""

from __future__ import annotations

import numpy as np

from .geometry import Window, dilate
from .mrf import MrfModel, _as_bands, _neighbor_means, evaluate
from .netmaps import _NetMaps


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
    return _neighbor_means({0: (values, mask)}, [(d, 0) for d in g.offsets],
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


def verdict_map(samples: np.ndarray, levels, model: MrfModel) -> np.ndarray:
    """``pyramid_evaluate`` of every pixel's window of the (h, w[, bands])
    image, as an (h, w) bool array; with one window in ``levels``, that
    is ``evaluate`` on the clipped window. This is ``verdict_maps`` of
    the one chain."""
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
