"""The paper's operators, stated literally: the reference the run path is
tested against.

Each operator here is the paper's definition on one pixel, one window or
one tiny state space, with no chunking, caching or whole-image maps:

- the clipped window and the boundary test (``clip``, ``boundary_point``);
- the block-merging operator and the windowed merge (``m_step``,
  ``merge_step``), which the driver's merge loop and the component
  labelings reproduce;
- the AR-MRF energy of one window and its threshold (``energy``,
  ``evaluate``), and the neighborhood system the energy is an MRF
  energy for (``neighborhood_squared``);
- the net on one window (``downsample``, ``pyramid_evaluate``), which
  ``pyramid.verdict_maps`` slides over a whole image;
- the Gibbs/Metropolis reading of the AR-MRF threshold: the Boltzmann
  distribution the energy induces, enumerable for tiny state spaces
  (``gibbs_distribution``), which gives an exact oracle for the
  threshold equivalence (``tau_rho_consistency``) and a target for the
  Metropolis calibration (``calibrate_rho``). Their energies add terms
  in ``pyramid._site_terms``' order, one at a time, so they are bitwise
  ``energy``'s.

No run imports this module: ``mcvseg segment``, ``run_mcv`` and every
other subcommand leave it unloaded, and ``mcvseg`` loads it on first
access to one of its public names.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable, Sequence

import numpy as np

from .geometry import Lattice, Pixel, Window, WindowGeom, dilate
from .partition import ABSENT, Partition, _relabel
from .pyramid import (MrfModel, _as_bands, _neighbor_means, _ordered_sum, _site_terms,
                      check_chain)

# --- geometry ----------------------------------------------------------------


def clip(w: Window, x: Pixel, lat: Lattice) -> set[Pixel]:
    """Translate ``w`` to ``x`` and intersect with the lattice.

    The result always contains ``x`` because the window contains the origin.
    """
    lat.index(x)  # raises off the lattice
    c, r = x
    return {
        (c + dx, r + dy)
        for dx, dy in w.offsets
        if 1 <= c + dx <= lat.width and 1 <= r + dy <= lat.height
    }


def boundary_point(x: Pixel, region: set[Pixel], w0: Window, lat: Lattice) -> bool:
    """True iff the clipped window at ``x`` meets both the region and its
    in-lattice complement.

    Both tests run inside the lattice: off-lattice positions never count as
    "outside the region", so a full-lattice region has no boundary points.
    """
    clipped = clip(w0, x, lat)
    inside = clipped & region
    return bool(inside) and len(inside) < len(clipped)


# --- partition ---------------------------------------------------------------


def _window_labels(labels: np.ndarray, rs: slice, cs: slice, sub: np.ndarray | None) -> np.ndarray:
    """Labels under a window cut out of the lattice by ``WindowGeom.cut``."""
    block = labels[rs, cs]
    return block if sub is None else block[sub]


def _label_table(labels: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """A ``_relabel`` table over every label of ``labels``, set at
    ``targets``; negative labels index it from the end, past the largest."""
    table = np.zeros(int(labels.max()) + 1 - min(int(labels.min()), 0), dtype=bool)
    table[targets] = True
    return table


def m_step(x: Pixel, p: Partition, w0: Window) -> Partition:
    """One application of the block-merging operator at ``x``: every block
    meeting the clipped w0-window of ``x`` (within the domain) fuses into
    the block of ``x``; all other blocks pass through.

    The result is a partition of the same domain, coarser than or equal to
    the input, and it preserves connectedness of blocks.
    """
    target = p.label_at(x)
    if target == ABSENT:
        raise ValueError(f"pixel {x} is not in the partition domain")
    members = _window_labels(p.labels, *WindowGeom.of(w0).clip(*p.lattice.index(x), *p.labels.shape))
    out = p.labels.copy()
    table = _label_table(out, members[members != ABSENT])
    _relabel(out, slice(None), slice(None), None, table, target)
    return Partition(p.lattice, out)


def merge_step(x: Pixel, p: Partition, w0: Window, psi: Window) -> Partition:
    """Windowed merge at ``x``: blocks meeting the w0-window contribute
    their pixels inside the psi-window to one new block; what falls outside
    the psi-window stays behind as residue blocks under the old labels.

    The merged block always contains ``x``; residues may be disconnected
    and empty residues vanish. Regions can split as well as merge, so the
    result need not be coarser than the input.
    """
    r, c = p.lattice.index(x)  # raises off the lattice
    if not p.is_total:
        raise ValueError("merge_step requires a total partition")
    out = p.labels.copy()
    targets = _window_labels(out, *WindowGeom.of(w0).clip(r, c, *out.shape))
    rs, cs, sub = WindowGeom.of(psi).clip(r, c, *out.shape)
    _relabel(out, rs, cs, sub, _label_table(out, targets), int(out.max()) + 1)
    return Partition(p.lattice, out)


# --- the energy of one window ------------------------------------------------


def _sequential_sum(x: np.ndarray) -> np.float64:
    """The sum of the 1-D ``x``, adding one element at a time from the
    first: ``np.add.accumulate`` is sequential by definition, unlike
    ``np.sum``, whose order depends on the array's length and layout."""
    return np.add.accumulate(x)[-1]


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
    return float(_sequential_sum(_site_terms(vals, *pred, model).ravel()))


def evaluate(values: np.ndarray, model: MrfModel, mask: np.ndarray | None = None) -> int:
    """1 iff the patch is acceptable: per-pixel energy at most ``rho``."""
    vals = _as_bands(values)
    size = vals.shape[0] * vals.shape[1] if mask is None else int(np.count_nonzero(mask))
    return 1 if energy(vals, model, mask) / size <= model.rho else 0


def neighborhood_squared(g: Window) -> Window:
    """Composition of the neighborhood relation with itself: the system
    with respect to which the autoregressive energy is a valid MRF energy."""
    return dilate(g, 2)


# --- the net on one window ---------------------------------------------------


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


def pyramid_evaluate(values: np.ndarray, levels, model: MrfModel,
                     mask: np.ndarray | None = None) -> int:
    """Feed one window through the net and threshold: ``values``
    (h, w[, bands]) and ``mask`` (None for the whole window) cover the
    bounding box of the chain's first window. With one window this is
    ``evaluate`` on the window."""
    levels = check_chain(levels)
    values, mask = _on_window(_as_bands(values), mask, levels[0])
    for src, dst in zip(levels, levels[1:]):
        values, mask = downsample(values, mask, src, dst, model.neighborhood)
    return evaluate(values, model, mask)


# --- exact enumeration over tiny state spaces --------------------------------

#: Enumeration guard for the Gibbs table.
MAX_STATES = 2**20


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
        total += float(_sequential_sum(np.array(terms)))
    return total / samples / k


def _site_term(state: Sequence, i: int, table, metric: str) -> float:
    """Energy contribution of the single site ``i`` for the current state,
    with ``pyramid._site_terms``' float operations: neighbors and bands are
    added in order, one at a time."""
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
