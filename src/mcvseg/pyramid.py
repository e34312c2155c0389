"""The wired feed-forward net: pyramid layers on bare arrays.

A window is scored directly, or its resolution is lowered step by step
down a coarse-ward window chain (``check_chain``) to the base
neighborhood, where the energy is thresholded as ``mrf.evaluate`` does.
Each step is one layer of plain means over the model's neighborhood
(``mrf._neighbor_means``, which is the AR predictor too): nothing is
learned, every weight is wired to one. ``verdict_maps`` slides the net
over a whole image as a convolution, for every chain of a run at once
(``verdict_map`` for one), through the run's cache of whole-image maps
(``netmaps``). The net on one window, ``reference.pyramid_evaluate``, is
the reference this fast path is tested against.
"""

from __future__ import annotations

import numpy as np

from .geometry import Window, dilate
from .mrf import MrfModel, _as_bands
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
