"""Autoregressive Gaussian MRF homogeneity scoring.

The energy of a patch is the summed squared deviation of each pixel from
the mean of its in-region neighbors; a patch is acceptable when the
per-pixel energy falls below the model threshold. The AR predictor is
one layer of the net: ``_neighbor_means`` predicts each pixel for the
energy and gives every pyramid layer alike; with ``_add_shifted`` and
``_site_terms``, it is one of the kernels that the one-window ``energy``
and the whole-image maps of ``pyramid`` share. ``_ordered_sum`` adds a
window's terms one at a time in row-major order, and a term's bands in
order, so ``energy`` and ``pyramid.verdict_map`` give bitwise the same
energy of a window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .geometry import Offset, Window, NINE_NEIGHBORHOOD, dilate

METRICS = ("euclidean", "per_band_abs")


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
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {self.metric!r}")
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


def _add_shifted(out: np.ndarray, sources, reads: Iterable[tuple[Offset, object]],
                 dy0: int = 0, dx0: int = 0) -> np.ndarray:
    """Add to ``out`` (..., h, w, bands), one read at a time in order,
    each ((dx, dy), k) read: ``sources[k]`` (..., hs, ws, bands) at
    (i + dy0 + dy, j + dx0 + dx) for each position (i, j), or nothing
    where that is off the source. Returns ``out``. This is the only code
    that adds shifted arrays: every mean layer of the net, the AR
    predictor and the energy sum of ``pyramid.verdict_maps``."""
    h, w = out.shape[-3:-1]
    for (dx, dy), k in reads:
        src = sources[k]
        hs, ws = src.shape[-3:-1]
        ry, rx = dy0 + dy, dx0 + dx
        i0, i1 = max(0, -ry), min(h, hs - ry)
        j0, j1 = max(0, -rx), min(w, ws - rx)
        if i0 < i1 and j0 < j1:
            out[..., i0:i1, j0:j1, :] += src[..., i0 + ry : i1 + ry, j0 + rx : j1 + rx, :]
    return out


def _neighbor_means(sources: Mapping[object, tuple[np.ndarray, np.ndarray]],
                    reads: Iterable[tuple[Offset, object]], out_mask: np.ndarray,
                    dy0: int = 0, dx0: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """One layer of the net: per-band means (..., h, w, bands) of the
    in-mask reads at each (..., h, w) ``out_mask`` position, and the
    mask, off where a position has no read. Position (i, j) sits at
    source position (i + dy0, j + dx0). ``sources`` maps a key to a
    (values, mask) pair, all of one shape, (..., hs, ws, bands) values
    zero off the (..., hs, ws) mask. Each ((dx, dy), k) read, in order,
    adds source k at (i + dy0 + dy, j + dx0 + dx), or nothing off the
    source; the sum is divided once. Every zero mean is +0.0.

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
    reads = list(reads)
    values, mask = next(iter(sources.values()))
    out = (*mask.shape[:-2], *out_mask.shape[-2:])
    sums = _add_shifted(np.zeros((*out, values.shape[-1])),
                        {k: v for k, (v, _) in sources.items()}, reads, dy0, dx0)
    counts = _add_shifted(np.zeros((*out, 1), dtype=np.min_scalar_type(len(reads))),
                          {k: m[..., None] for k, (_, m) in sources.items()},
                          reads, dy0, dx0)[..., 0]
    present = out_mask & (counts > 0)
    means = sums / np.where(present, counts, np.inf)[..., None]
    means += 0.0
    return means, present


def _ordered_sum(x: np.ndarray) -> np.ndarray:
    """Sums over the last axis, adding one element at a time from the
    first, unlike ``np.sum``, whose order depends on the array's length
    and layout. A 1-D array goes through ``np.add.accumulate``, which is
    sequential by definition. A wider one, a map of band values, adds its
    bands in a loop: the same correctly rounded adds in the same order,
    so bitwise the same sums, at a fraction of the cost of accumulating
    along a short strided axis."""
    if x.ndim == 1:
        return np.add.accumulate(x)[-1]
    total = x[..., 0]
    for i in range(1, x.shape[-1]):
        total = total + x[..., i]
    return total


def _site_terms(vals: np.ndarray, pred: np.ndarray, has: np.ndarray,
                model: MrfModel) -> np.ndarray:
    """Per-pixel energy terms as a dense map, from the AR prediction
    ``pred`` of ``vals`` and its mask ``has`` (``_neighbor_means`` over
    the region): zero at every pixel outside the region or without an
    in-region neighbor. The zeros leave a window's ordered sum
    unchanged, since ``x + 0.0 == x``."""
    diff = pred - vals
    if model.metric == "euclidean":
        return _ordered_sum(diff * diff) * has
    return np.square(_ordered_sum(np.abs(diff))) * has


def energy(values: np.ndarray, model: MrfModel, mask: np.ndarray | None = None) -> float:
    """Autoregressive energy of a patch over region ``mask``.

    Each in-region pixel with at least one in-region neighbor contributes
    the squared metric deviation between its value and the mean of its
    in-region neighbors; isolated pixels contribute zero.
    """
    vals = _as_bands(values)
    h, w = vals.shape[:2]
    region = np.ones((h, w), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if region.shape != (h, w):
        raise ValueError(f"mask shape {region.shape} != patch shape {(h, w)}")
    if not region.any():
        raise ValueError("region is empty")
    pred = _neighbor_means({0: (vals * region[..., None], region)},
                           [(o, 0) for o in model.neighbor_offsets()], region)
    return float(_ordered_sum(_site_terms(vals, *pred, model).ravel()))


def evaluate(values: np.ndarray, model: MrfModel, mask: np.ndarray | None = None) -> int:
    """1 iff the patch is acceptable: per-pixel energy at most ``rho``."""
    vals = _as_bands(values)
    size = vals.shape[0] * vals.shape[1] if mask is None else int(np.count_nonzero(mask))
    return 1 if energy(vals, model, mask) / size <= model.rho else 0


def neighborhood_squared(g: Window) -> Window:
    """Composition of the neighborhood relation with itself: the system
    with respect to which the autoregressive energy is a valid MRF energy."""
    return dilate(g, 2)
