"""Autoregressive Gaussian MRF homogeneity scoring.

The energy of a patch is the summed squared deviation of each pixel from
the mean of its in-region neighbors; a patch is acceptable when the
per-pixel energy falls below the model threshold. The neighbor sums and
counts come from ``_neighbor_sums``, the one kernel that also builds
every ``pyramid.downsample`` layer. ``evaluate_batch`` gives many
windows ``evaluate``'s verdicts at once, so only this module adds up a
window's terms. The Boltzmann distribution this energy induces is
enumerable for tiny state spaces, which gives an exact oracle for the
threshold equivalence and a target for the Metropolis calibration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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


def _neighbor_sums(vals: np.ndarray, mask: np.ndarray, offsets: Iterable[Offset],
                   shape: tuple[int, int], dy0: int = 0,
                   dx0: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Sums and counts of in-mask neighbors on a ``shape`` grid.

    Grid position (i, j) sits at source position (i + dy0, j + dx0). Each
    (dx, dy) offset adds ``vals`` from source position
    (i + dy0 + dy, j + dx0 + dx) where that position is inside the source
    and ``mask``. ``vals`` is (..., hs, ws, bands) and ``mask``
    (..., hs, ws); leading batch axes carry through. Returns the per-band
    sums, (..., *shape, bands), and the neighbor counts as floats,
    (..., *shape).
    """
    h, w = shape
    *lead, hs, ws = mask.shape
    # Masked once up front, each offset only adds slices: the same
    # products as masking per offset, without a multiply per offset.
    counted = mask.astype(np.float64)
    masked = vals * counted[..., None]
    sums = np.zeros((*lead, h, w, vals.shape[-1]))
    counts = np.zeros((*lead, h, w))
    for dx, dy in offsets:
        ry, rx = dy0 + dy, dx0 + dx
        i0, i1 = max(0, -ry), min(h, hs - ry)
        j0, j1 = max(0, -rx), min(w, ws - rx)
        if i0 >= i1 or j0 >= j1:
            continue
        rows, cols = slice(i0 + ry, i1 + ry), slice(j0 + rx, j1 + rx)
        sums[..., i0:i1, j0:j1, :] += masked[..., rows, cols, :]
        counts[..., i0:i1, j0:j1] += counted[..., rows, cols]
    return sums, counts


def _site_terms(vals: np.ndarray, region: np.ndarray, model: MrfModel):
    """Per-pixel energy terms as a dense map, zero at every pixel outside
    the region or without an in-region neighbor, and the boolean map of
    the pixels that have a term. Leading batch axes carry through."""
    sums, counts = _neighbor_sums(vals, region, model.neighbor_offsets(), region.shape[-2:])
    has = region & (counts > 0)
    pred = np.divide(sums, counts[..., None], out=np.zeros(sums.shape), where=has[..., None])
    diff = pred - vals
    if model.metric == "euclidean":
        return np.sum(diff * diff, axis=-1) * has, has
    return np.sum(np.abs(diff), axis=-1) ** 2 * has, has


def _compact_sum(terms: np.ndarray, has: np.ndarray) -> float:
    """One window's energy: its terms added in row-major order."""
    return float(np.sum(terms[has]))


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
    return _compact_sum(*_site_terms(vals, region, model))


def evaluate(values: np.ndarray, model: MrfModel, mask: np.ndarray | None = None) -> int:
    """1 iff the patch is acceptable: per-pixel energy at most ``rho``."""
    vals = _as_bands(values)
    size = vals.shape[0] * vals.shape[1] if mask is None else int(np.count_nonzero(mask))
    return 1 if energy(vals, model, mask) / size <= model.rho else 0


def evaluate_batch(vals: np.ndarray, mask: np.ndarray, model: MrfModel) -> np.ndarray:
    """``evaluate`` of n windows at once, as an (n,) bool array: ``vals``
    is (n, h, w, bands), ``mask`` (n, h, w) with at least one pixel each.

    The terms are ``energy``'s, but a row sum of the dense term map adds
    them in another order. They are non-negative, so for k terms the
    per-pixel energies q of the two orders differ by at most about
    k eps q; a window within 2 h w eps q of ``rho`` is re-summed in
    ``energy``'s order. A zero q is exact in any order and is never
    re-summed.
    """
    n, h, w = mask.shape
    terms, has = _site_terms(vals, mask, model)
    size = np.count_nonzero(mask.reshape(n, -1), axis=1)
    q = terms.reshape(n, -1).sum(axis=1) / size
    near = np.abs(q - model.rho) < 2 * h * w * np.finfo(np.float64).eps * q
    for i in np.flatnonzero(near):
        q[i] = _compact_sum(terms[i], has[i]) / size[i]
    return q <= model.rho


# --- exact enumeration over tiny state spaces ------------------------------


def _neighbor_table(pixels: Sequence[Pixel], model: MrfModel) -> list[list[int]]:
    """Per pixel, the indices of its in-region neighbors. A prediction
    divides the neighbors' sum once, so a constant patch scores exactly
    zero."""
    index = {p: i for i, p in enumerate(pixels)}
    offsets = model.neighbor_offsets()
    return [[index[q] for q in ((c + dx, r + dy) for dx, dy in offsets) if q in index]
            for c, r in pixels]


def _state_energy(state: Sequence, table, metric: str) -> float:
    """Energy of one assignment; values are scalars or same-length tuples."""
    return sum(_site_term(state, i, table, metric) for i in range(len(table)))


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
    energies = np.array([_state_energy(s, table, model.metric) for s in states])
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
    affected: list[list[int]] = [[j] for j in range(k)]
    for i, nbrs in enumerate(table):
        for j in nbrs:
            if i not in affected[j]:
                affected[j].append(i)

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
        delta = sum(new_terms) - sum(old_terms)
        if delta <= 0 or rng.random() < math.exp(-delta * t_inv):
            for i, term in zip(affected[site], new_terms):
                terms[i] = term
        else:
            state[site] = old_value
        total += sum(terms)
    return total / samples / k


def _site_term(state: Sequence, i: int, table, metric: str) -> float:
    """Energy contribution of the single site ``i`` for the current state."""
    nbrs = table[i]
    if not nbrs:
        return 0.0
    n = len(nbrs)
    vi = state[i]
    if isinstance(vi, (tuple, list)):
        pred = [0.0] * len(vi)
        for j in nbrs:
            vj = state[j]
            for b in range(len(pred)):
                pred[b] += vj[b]
        if metric == "euclidean":
            return sum((pb / n - vb) ** 2 for pb, vb in zip(pred, vi))
        return sum(abs(pb / n - vb) for pb, vb in zip(pred, vi)) ** 2
    pred = 0.0
    for j in nbrs:
        pred += state[j]
    return (pred / n - vi) ** 2


def neighborhood_squared(g: Window) -> Window:
    """Composition of the neighborhood relation with itself: the system
    with respect to which the autoregressive energy is a valid MRF energy."""
    return dilate(g, 2)
