"""The wired feed-forward net: pyramid layers on bare arrays.

A window is scored directly, or its resolution is lowered step by step
down a coarse-ward window chain (``check_chain``) to the base
neighborhood, where the energy is thresholded as ``mrf.evaluate`` does. Each
step is one ``downsample`` layer of plain means over the model's
neighborhood: nothing is learned, every weight is wired to one. A layer
is one call of ``mrf._neighbor_sums``, the kernel behind the energy's
prediction, and takes leading batch axes: ``verdict_map`` runs the net
on every pixel's window of an image at once, ``pyramid_evaluate`` on one
window.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import Window, dilate
from .mrf import MrfModel, _as_bands, _neighbor_sums, evaluate, evaluate_batch


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
    mask (None for all of it) cut to the window."""
    box = window.mask()
    mask = box if mask is None else np.asarray(mask, dtype=bool)
    values = np.asarray(values, dtype=np.float64)
    if mask.shape[-2:] != box.shape or values.shape[:-1] != mask.shape:
        raise ValueError(f"values {values.shape} and mask {mask.shape} miss window box {box.shape}")
    return values, mask & box


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
    out_mask = out_window.mask()
    sums, counts = _neighbor_sums(values, mask, g.offsets, out_mask.shape,
                                  oy0 - sy0, ox0 - sx0)
    present = out_mask & (counts > 0)
    means = np.divide(sums, counts[..., None], out=np.zeros(sums.shape),
                      where=present[..., None])
    return means, present


def _layers(values: np.ndarray, mask: np.ndarray, levels: tuple[Window, ...],
            g: Window) -> tuple[np.ndarray, np.ndarray]:
    """The arrays over ``levels[0]``'s box, taken down the chain."""
    for src, dst in zip(levels, levels[1:]):
        values, mask = downsample(values, mask, src, dst, g)
    return values, mask


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
    values, mask = _layers(values, mask, levels, model.neighborhood)
    return evaluate(values, model, mask)


#: Upper bound on the window samples (pixels x bands of the top window's
#: bounding box, summed over the windows) that ``verdict_map`` scores at
#: once; it caps the scratch memory of a map, whatever the image size.
CHUNK_SAMPLES = 16384


def verdict_map(samples: np.ndarray, levels, model: MrfModel) -> np.ndarray:
    """The verdict of every pixel's window, as an (h, w) bool array.

    ``samples`` is the (h, w[, bands]) image and ``levels`` a window
    chain whose first window is placed on every pixel, with a sample at
    each in-window lattice position. Each entry equals ``pyramid_evaluate``
    of the pixel's window, which is ``evaluate`` on the clipped window
    when ``levels`` holds one window. The layers work element-wise, so a
    chunk's downsampled arrays are bitwise the ones ``pyramid_evaluate``
    would score, and ``evaluate_batch`` decides them as ``evaluate`` does.
    """
    levels = check_chain(levels)
    vals = _as_bands(samples)
    h, w, bands = vals.shape
    top = levels[0]
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
        cur, msk = _layers(box_vals[rs, cs], box_in[rs, cs] & wmask, levels,
                           model.neighborhood)
        out[p0 : p0 + len(rs)] = evaluate_batch(cur, msk, model)
    return out.reshape(h, w)
