"""Multiresolution window images and a feed-forward evaluator.

A big evaluation window is scored either directly or by lowering its
resolution step by step until it fits the base 3x3 neighborhood and then
thresholding the energy there. The chain of fixed mean layers plus the
threshold is exactly the composition of ``downsample`` calls followed by
``mrf.evaluate``; nothing is learned, every weight is wired to one. Each
layer is one call of ``mrf._neighbor_sums``, the kernel behind the
energy's autoregressive prediction, so both compute the same neighbor
sum the same way. ``verdict_map`` applies the wired net to every pixel's
window of an image at once, batching the windows through the same
layers; scoring one window directly is the net with no aggregation step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import Window, dilate
from .mrf import MrfModel, _as_bands, _neighbor_sums, evaluate, evaluate_batch


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


def _downsample_arrays(vals: np.ndarray, mask: np.ndarray, src_window: Window,
                       out_window: Window, g: Window):
    """``downsample`` on bare arrays: ``vals`` (..., h, w, bands) and
    ``mask`` (..., h, w) over ``src_window``'s bounding box, with leading
    batch axes. Returns the output values and mask."""
    ox0, _, oy0, _ = out_window.bbox()
    sx0, _, sy0, _ = src_window.bbox()
    out_mask = out_window.mask()
    sums, counts = _neighbor_sums(vals, mask, g.offsets, out_mask.shape,
                                  oy0 - sy0, ox0 - sx0)
    present = out_mask & (counts > 0)
    values = np.divide(sums, counts[..., None], out=np.zeros(sums.shape),
                       where=present[..., None])
    return values, present


def downsample(src: WindowImage, out_window: Window, g: Window) -> WindowImage:
    """One resolution-lowering step.

    Each output position takes the mean of its sampled g-neighbors
    (origin included) in the source image. Positions with no sampled
    neighbor at all come out masked off.
    """
    values, present = _downsample_arrays(src.values, src.mask, src.window, out_window, g)
    return WindowImage(out_window, values, present)


@dataclass(frozen=True)
class PyramidEvaluator:
    """Stack of fixed aggregation layers ending in the energy threshold.

    ``levels`` runs coarse-ward: the first entry is the largest window the
    evaluator accepts, the last is the base neighborhood the model scores.
    Each step down takes means over the model's neighborhood.
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


#: Upper bound on the window samples (pixels x bands of the top window's
#: bounding box, summed over the windows) that ``verdict_map`` scores at
#: once; it caps the scratch memory of a map, whatever the image size.
CHUNK_SAMPLES = 16384


def verdict_map(samples: np.ndarray, levels: tuple[Window, ...],
                model: MrfModel) -> np.ndarray:
    """The verdict of every pixel's window, as an (h, w) bool array.

    ``samples`` is the (h, w[, bands]) image and ``levels`` a coarse-ward
    window chain as in ``PyramidEvaluator``, whose first window is placed
    on every pixel. A pixel's window image covers that window's bounding
    box, with a sample at each in-window lattice position; the chain of
    downsampling layers and the energy threshold then run on all windows
    at once. Each entry equals ``pyramid_evaluate`` of the pixel's window
    image, which is ``evaluate`` on the clipped window when ``levels``
    holds one window. The batched energy adds a window's terms in another
    order than ``energy``, so windows it flags as too close to ``rho`` to
    tell are re-decided by ``evaluate`` on their downsampled arrays; the
    layers work element-wise, so those are bitwise the arrays
    ``pyramid_evaluate`` would score.
    """
    vals = _as_bands(samples)
    h, w, bands = vals.shape
    pe = PyramidEvaluator(model, tuple(levels))
    top = pe.levels[0]
    x0, _, y0, _ = top.bbox()
    wmask = top.mask()
    bh, bw = wmask.shape
    # Pixel (r, c)'s window box is padded[r : r + bh, c : c + bw].
    padded = np.zeros((h + bh - 1, w + bw - 1, bands))
    padded[-y0 : h - y0, -x0 : w - x0] = vals
    inside = np.zeros(padded.shape[:2], dtype=bool)
    inside[-y0 : h - y0, -x0 : w - x0] = True
    box_vals = sliding_window_view(padded, (bh, bw, bands))[:, :, 0]
    box_in = sliding_window_view(inside, (bh, bw))
    step = max(1, CHUNK_SAMPLES // (bh * bw * bands))
    out = np.empty(h * w, dtype=bool)
    for p0 in range(0, h * w, step):
        rs, cs = np.divmod(np.arange(p0, min(h * w, p0 + step)), w)
        cur, msk = box_vals[rs, cs], box_in[rs, cs] & wmask
        for src, dst in zip(pe.levels, pe.levels[1:]):
            cur, msk = _downsample_arrays(cur, msk, src, dst, model.neighborhood)
        ok, near = evaluate_batch(cur, msk, model)
        for i in np.flatnonzero(near):
            ok[i] = evaluate(cur[i], model, msk[i])
        out[p0 : p0 + len(ok)] = ok
    return out.reshape(h, w)
