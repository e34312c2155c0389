"""Multiresolution window images and a feed-forward evaluator.

A big evaluation window is scored either directly or by lowering its
resolution step by step until it fits the base 3x3 neighborhood and then
thresholding the energy there. The chain of fixed weighted-sum layers
plus the threshold is exactly the composition of ``downsample`` calls
followed by ``mrf.evaluate``; nothing is learned, the weights are wired.
Each layer is one call of ``mrf._neighbor_sums``, the kernel behind the
energy's autoregressive prediction, so both compute the same weighted
sum the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .geometry import Offset, Window, dilate
from .mrf import MrfModel, _as_bands, _neighbor_sums, evaluate


@dataclass
class WindowImage:
    """Image samples living on the offsets of a window.

    ``values`` covers the window's bounding box as (h, w, bands);
    ``mask`` marks the positions actually carrying a sample, which is at
    most the window's own shape (a window clipped at the image border has
    holes).
    """

    window: Window
    values: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        vals = _as_bands(self.values)
        wmask = self.window.mask()
        if vals.shape[:2] != wmask.shape:
            raise ValueError(f"values shape {vals.shape[:2]} != window bbox {wmask.shape}")
        if self.mask is None:
            mask = wmask
        else:
            mask = np.asarray(self.mask, dtype=bool)
            if mask.shape != wmask.shape:
                raise ValueError(f"mask shape {mask.shape} != window bbox {wmask.shape}")
            mask = mask & wmask
        self.values = vals
        self.mask = mask

    @property
    def bands(self) -> int:
        return self.values.shape[2]


def _check_theta(g: Window, theta: Mapping[Offset, float] | None) -> list[tuple[Offset, float]]:
    pairs = []
    for o in g.offsets:
        w = 1.0 if theta is None else float(theta.get(o, 0.0))
        if w < 0:
            raise ValueError(f"negative weight for offset {o}")
        pairs.append((o, w))
    if theta is not None:
        extra = set(theta) - set(g.offsets)
        if extra:
            raise ValueError(f"weight offsets {sorted(extra)} not in aggregation window")
        if all(w == 0 for _, w in pairs):
            raise ValueError("all aggregation weights are zero")
    return pairs


def downsample(src: WindowImage, out_window: Window, g: Window,
               theta: Mapping[Offset, float] | None = None) -> WindowImage:
    """One resolution-lowering step.

    Each output position takes the theta-weighted average of its
    g-neighbors (origin included) in the source image; neighbors without
    a sample are dropped and the weights renormalized over the rest.
    Positions with no sampled neighbor at all come out masked off.
    """
    pairs = _check_theta(g, theta)
    ox0, _, oy0, _ = out_window.bbox()
    sx0, _, sy0, _ = src.window.bbox()
    out_mask = out_window.mask()
    wsum, wtot = _neighbor_sums(src.values, src.mask, pairs, out_mask.shape,
                                oy0 - sy0, ox0 - sx0)
    present = out_mask & (wtot > 0)
    values = np.zeros(wsum.shape)
    values[present] = wsum[present] / wtot[present][:, None]
    return WindowImage(out_window, values, present)


@dataclass(frozen=True)
class PyramidEvaluator:
    """Stack of fixed aggregation layers ending in the energy threshold.

    ``levels`` runs coarse-ward: the first entry is the largest window the
    evaluator accepts, the last is the base neighborhood the model scores.
    Each step down aggregates with uniform weights over the model's
    neighborhood.
    """

    model: MrfModel
    levels: tuple[Window, ...]

    def __post_init__(self):
        if not self.levels:
            raise ValueError("evaluator needs at least one level")
        for coarse, fine in zip(self.levels[1:], self.levels):
            if not set(coarse.offsets) < set(fine.offsets):
                raise ValueError("levels must shrink strictly coarse-ward")


def make_pyramid_evaluator(model: MrfModel, max_level: int) -> PyramidEvaluator:
    """Evaluator for the standard window sequence dilate(g, i), i = max..1,
    with g the model's neighborhood."""
    if max_level < 1:
        raise ValueError(f"max_level must be >= 1, got {max_level}")
    g = model.neighborhood
    return PyramidEvaluator(model, tuple(dilate(g, i) for i in range(max_level, 0, -1)))


def pyramid_evaluate(img: WindowImage, pe: PyramidEvaluator) -> int:
    """Feed the window image through the layer stack and threshold.

    The image's window must be one of the evaluator's levels; from there
    it is aggregated down to the final level and scored by the base
    model. With zero aggregation steps this is exactly ``mrf.evaluate``.
    """
    for idx, win in enumerate(pe.levels):
        if win == img.window:
            break
    else:
        raise ValueError("window is not one of the evaluator's levels")
    cur = img
    for win in pe.levels[idx + 1 :]:
        cur = downsample(cur, win, pe.model.neighborhood)
    return evaluate(cur.values, pe.model, cur.mask)
