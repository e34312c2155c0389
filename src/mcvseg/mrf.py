"""Autoregressive Gaussian MRF homogeneity scoring.

The energy of a patch is the summed squared deviation of each pixel from
the mean of its in-region neighbors; a patch is acceptable when the
per-pixel energy falls below the model threshold. The AR predictor is
one layer of the net: ``_neighbor_means`` predicts each pixel for the
energy and gives every pyramid layer alike. ``_ordered_sum`` adds a
window's terms one at a time in row-major order, and a term's bands in
order, so ``energy``, the Gibbs and Metropolis tables and
``pyramid.verdict_map`` give bitwise the same energy of a window; the
Metropolis chain adds its energy changes in one fixed order too. The
Boltzmann distribution this energy induces is enumerable for tiny state
spaces, which gives an exact oracle for the threshold equivalence and a
target for the Metropolis calibration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable, Mapping, Sequence

import numpy as np

from .geometry import Offset, Pixel, Window, NINE_NEIGHBORHOOD, dilate

#: Enumeration guard for the Gibbs table.
MAX_STATES = 2**20

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


# --- exact enumeration over tiny state spaces ------------------------------


def _neighbor_table(pixels: Sequence[Pixel], model: MrfModel) -> list[list[int]]:
    """Per pixel, the indices of its in-region neighbors. A prediction
    divides the neighbors' sum once, so a constant patch scores exactly
    zero."""
    index = {p: i for i, p in enumerate(pixels)}
    offsets = model.neighbor_offsets()
    return [[index[q] for q in ((c + dx, r + dy) for dx, dy in offsets) if q in index]
            for c, r in pixels]


def _boltzmann(energies: np.ndarray, temperature: float):
    """Normalized Boltzmann weights, computed relative to the minimum
    energy for stability."""
    scaled = np.exp(-(energies - float(energies.min())) / temperature)
    return scaled / float(scaled.sum())


@dataclass
class GibbsTable:
    """Exhaustive Boltzmann distribution over all images on a tiny region."""

    pixels: tuple[Pixel, ...]
    states: list[tuple]
    energies: np.ndarray
    probabilities: np.ndarray

    def mean_energy_per_pixel(self) -> float:
        return float(np.dot(self.probabilities, self.energies)) / len(self.pixels)


def gibbs_distribution(region: Iterable[Pixel], values: Sequence, model: MrfModel) -> GibbsTable:
    """Enumerate the Boltzmann distribution over all |V|^|R| images.

    Guarded at MAX_STATES states; probabilities are positive and sum to 1.
    """
    pixels = tuple(sorted(set(region), key=lambda p: (p[1], p[0])))
    if not pixels:
        raise ValueError("region is empty")
    k = len(pixels)
    values = list(values)
    if len(values) == 0:
        raise ValueError("value set is empty")
    n_states = len(values) ** k
    if n_states > MAX_STATES:
        raise ValueError(f"state space {len(values)}^{k} exceeds {MAX_STATES}")
    table = _neighbor_table(pixels, model)
    states = list(itertools.product(values, repeat=k))
    terms = np.fromiter((_site_term(s, i, table, model.metric) for s in states for i in range(k)),
                        dtype=np.float64, count=n_states * k)
    energies = _ordered_sum(terms.reshape(n_states, k))
    return GibbsTable(pixels, states, energies, _boltzmann(energies, model.temperature))


def tau_rho_consistency(region: Iterable[Pixel], values: Sequence, model: MrfModel) -> bool:
    """Check on the enumerated state space that probability thresholding
    and energy thresholding select the same acceptance set.

    The probability threshold is the Boltzmann weight of the model's total
    energy budget rho * |R|; agreement must be exact, state by state. The
    threshold weight is evaluated in the same exp call as the state
    weights so equal exponents give bitwise equal weights, and the shared
    normalizer is left out of the comparison entirely.
    """
    gt = gibbs_distribution(region, values, model)
    rho_total = model.rho * len(gt.pixels)
    shift = float(gt.energies.min())
    scaled = np.exp(-(np.append(gt.energies, rho_total) - shift) / model.temperature)
    by_prob = scaled[:-1] >= scaled[-1]
    by_energy = gt.energies <= rho_total
    return bool(np.array_equal(by_prob, by_energy))


def calibrate_rho(patch_shape: tuple[int, int], values: Sequence, model: MrfModel,
                  samples: int, seed: int = 0) -> float:
    """Estimate a per-pixel energy threshold by Metropolis sampling.

    Runs a single-site Metropolis chain over images on a full
    (rows, cols) patch: proposals are uniform over the value set, accepted
    with probability min(1, exp(-dU/T)). Returns the chain mean of the
    per-pixel energy. Deterministic for a fixed seed (NumPy PCG64).
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rows, cols = patch_shape
    if rows < 1 or cols < 1:
        raise ValueError(f"patch shape must be positive, got {patch_shape}")
    values = list(values)
    if len(values) == 0:
        raise ValueError("value set is empty")
    pixels = tuple((c + 1, r + 1) for r in range(rows) for c in range(cols))
    k = len(pixels)
    table = _neighbor_table(pixels, model)
    # terms affected by a change at site j: j itself plus sites with j as neighbor
    affected = [[j] + [i for i, nbrs in enumerate(table) if j in nbrs] for j in range(k)]

    rng = np.random.default_rng(seed)
    state = [values[int(i)] for i in rng.integers(0, len(values), size=k)]
    terms = [_site_term(state, i, table, model.metric) for i in range(k)]
    total = 0.0
    t_inv = 1.0 / model.temperature
    for _ in range(samples):
        site = int(rng.integers(0, k))
        proposal = values[int(rng.integers(0, len(values)))]
        old_value = state[site]
        old_terms = [terms[i] for i in affected[site]]
        state[site] = proposal
        new_terms = [_site_term(state, i, table, model.metric) for i in affected[site]]
        # added in order: the builtin sum is compensated from Python 3.12
        delta = reduce(add, new_terms, 0.0) - reduce(add, old_terms, 0.0)
        if delta <= 0 or rng.random() < math.exp(-delta * t_inv):
            for i, term in zip(affected[site], new_terms):
                terms[i] = term
        else:
            state[site] = old_value
        total += float(_ordered_sum(np.array(terms)))
    return total / samples / k


def _site_term(state: Sequence, i: int, table, metric: str) -> float:
    """Energy contribution of the single site ``i`` for the current state,
    with ``_site_terms``' float operations: neighbors and bands are added
    in order, one at a time."""
    nbrs = table[i]
    if not nbrs:
        return 0.0
    n = len(nbrs)
    vi = state[i]
    if isinstance(vi, (tuple, list)):
        pred = [0.0] * len(vi)
        for j in nbrs:
            for b, vb in enumerate(state[j]):
                pred[b] += vb
        term = 0.0
        for pb, vb in zip(pred, vi):
            d = pb / n - vb
            term += d * d if metric == "euclidean" else abs(d)
        return term if metric == "euclidean" else term * term
    pred = 0.0
    for j in nbrs:
        pred += state[j]
    d = pred / n - vi
    return d * d


def neighborhood_squared(g: Window) -> Window:
    """Composition of the neighborhood relation with itself: the system
    with respect to which the autoregressive energy is a valid MRF energy."""
    return dilate(g, 2)
