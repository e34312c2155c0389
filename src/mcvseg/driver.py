"""Sequential level loop tying permutation, boundary test, homogeneity
evaluation, and windowed merging together.

Levels run in order with growing evaluation and merge windows. The
homogeneity test reads only the raw image, the pixel and the level,
never the labels, so each level starts by scoring every pixel's
evaluation window in one verdict map (``pyramid.verdict_map``; direct
mode is the pyramid with no aggregation step). Then the pixels are
visited in a fixed permutation: a pixel sitting on a label boundary
counts as one evaluation and reads its verdict, and an accepted verdict
merges the bordering blocks inside the level's merge window. The result
is a multiresolution sequence of partitions, deterministic for a given
configuration.

Each accepted merge reads the labels the previous one wrote, so the
merge loop runs strictly in order on one thread. All window clipping
goes through ``WindowGeom.clip`` and every merge through
``partition._relabel``.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .geometry import (FIVE_NEIGHBORHOOD, Lattice, NINE_NEIGHBORHOOD, Window,
                       WindowGeom, dilate, square_window)
# The level loop no longer calls ``evaluate`` or ``pyramid_evaluate``;
# they stay importable here under the names perfbench's traced run wraps.
from .mrf import MrfModel, evaluate  # noqa: F401
from .partition import Partition, _relabel, canonicalize, singletons_full
from .pnmio import ImageBuffer
from .pyramid import PyramidEvaluator, pyramid_evaluate, verdict_map  # noqa: F401


class ConfigError(ValueError):
    """Invalid run configuration, raised before any pixel is touched."""


PERMUTATION_KINDS = ("raster", "random", "file")
EVAL_MODES = ("direct", "pyramid")

#: CLI spellings accepted for the two deviation metrics.
METRIC_ALIASES = {
    "euclidean": "euclidean",
    "per_band_abs": "per_band_abs",
    "l2": "euclidean",
    "l1": "per_band_abs",
}


@dataclass(frozen=True)
class McvConfig:
    """Everything a run depends on.

    ``neighborhood`` picks the base adjacency (8 = 3x3 block, 4 = cross).
    Evaluation windows default to the i-fold dilation of the base
    neighborhood, merge windows to squares of radius 2^i; both sequences
    can be overridden with explicit per-level windows. ``rho`` thresholds
    the per-pixel energy, so it is comparable across window sizes.
    ``workers`` is validated and recorded in ``stats.txt`` but changes
    nothing: a level's merges run in order on one thread.
    """

    max_level: int = 9
    permutation: str = "random"
    seed: int = 0
    perm_file: str | None = None
    neighborhood: int = 8
    rho: float = 100.0
    temperature: float = 1.0
    metric: str = "euclidean"
    eval_mode: str = "direct"
    workers: int = 1
    reshuffle_per_level: bool = False
    eval_windows: tuple[Window, ...] | None = None
    merge_windows: tuple[Window, ...] | None = None

    @property
    def w0(self) -> Window:
        return NINE_NEIGHBORHOOD if self.neighborhood == 8 else FIVE_NEIGHBORHOOD

    def model(self) -> MrfModel:
        return MrfModel(neighborhood=self.w0, metric=METRIC_ALIASES[self.metric],
                        temperature=self.temperature, rho=self.rho)

    def eval_window(self, level: int) -> Window:
        if not 1 <= level <= self.max_level:
            raise ValueError(f"level {level} outside 1..{self.max_level}")
        if self.eval_windows is not None:
            return self.eval_windows[level - 1]
        return dilate(self.w0, level)

    def merge_window(self, level: int) -> Window:
        """The level's merge window as an explicit Window. At high levels
        the default square is huge; the run loop never materializes it."""
        if not 1 <= level <= self.max_level:
            raise ValueError(f"level {level} outside 1..{self.max_level}")
        if self.merge_windows is not None:
            return self.merge_windows[level - 1]
        return square_window(2 ** level)

    def validate(self) -> None:
        for name in ("max_level", "seed", "neighborhood", "workers"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.max_level < 1:
            raise ConfigError(f"max_level must be >= 1, got {self.max_level}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.permutation not in PERMUTATION_KINDS:
            raise ConfigError(f"permutation must be one of {PERMUTATION_KINDS}, "
                              f"got {self.permutation!r}")
        if self.permutation == "file" and not self.perm_file:
            raise ConfigError("permutation=file needs perm_file")
        if self.reshuffle_per_level and self.permutation != "random":
            raise ConfigError("reshuffle_per_level needs permutation=random")
        if self.neighborhood not in (4, 8):
            raise ConfigError(f"neighborhood must be 4 or 8, got {self.neighborhood}")
        if self.metric not in METRIC_ALIASES:
            raise ConfigError(f"metric must be one of {sorted(METRIC_ALIASES)}, "
                              f"got {self.metric!r}")
        if self.eval_mode not in EVAL_MODES:
            raise ConfigError(f"eval_mode must be one of {EVAL_MODES}, "
                              f"got {self.eval_mode!r}")
        try:
            self.model()
        except ValueError as e:
            raise ConfigError(str(e)) from e
        for name, seq in (("eval_windows", self.eval_windows),
                          ("merge_windows", self.merge_windows)):
            if seq is None:
                continue
            if len(seq) != self.max_level:
                raise ConfigError(f"{name} must list one window per level "
                                  f"({self.max_level}), got {len(seq)}")
            for i in range(len(seq) - 1):
                if not set(seq[i].offsets) <= set(seq[i + 1].offsets):
                    raise ConfigError(f"{name}[{i}] is not contained in "
                                      f"{name}[{i + 1}]")


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


_CONFIG_PARSERS = {
    "max_level": int,
    "permutation": str,
    "perm_file": str,
    "seed": int,
    "neighborhood": int,
    "rho": float,
    "temperature": float,
    "metric": str,
    "eval_mode": str,
    "workers": int,
    "reshuffle_per_level": _parse_bool,
}


def config_updates(text: str) -> dict:
    """Parse flat ``key = value`` config text into McvConfig field values.

    Keys are the McvConfig field names; ``#`` starts a comment; later
    lines win. Unknown keys and unparsable values raise ConfigError.
    """
    out: dict = {}
    for ln, line in enumerate(text.splitlines(), 1):
        s = line.split("#", 1)[0].strip()
        if not s:
            continue
        key, eq, raw = s.partition("=")
        key, raw = key.strip(), raw.strip()
        if not eq or not key:
            raise ConfigError(f"config line {ln}: expected key=value, got {s!r}")
        parser = _CONFIG_PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"config line {ln}: unknown key {key!r}")
        try:
            out[key] = parser(raw)
        except ValueError as e:
            raise ConfigError(f"config line {ln}: {e}") from e
    return out


@dataclass
class LevelStats:
    """Counters for one executed level (level 0 is the initial state)."""

    level: int
    evaluations: int
    accepted: int
    region_count: int
    elapsed: float = 0.0


@dataclass
class PartitionSequence:
    """Canonicalized partition after every level, plus run bookkeeping."""

    config: McvConfig
    levels: list[Partition]
    stats: list[LevelStats]

    def final(self) -> Partition:
        return self.levels[-1]

    def region_counts(self) -> list[int]:
        return [s.region_count for s in self.stats]


def _pixel_pairs(flat: np.ndarray, lat: Lattice) -> np.ndarray:
    """(col, row) pairs of 0-based row-major pixel indices."""
    return np.stack([flat % lat.width + 1, flat // lat.width + 1], axis=1)


def permutation(kind: str, lat: Lattice, seed: int | Sequence[int] = 0) -> np.ndarray:
    """Pixel visiting order as an (N, 2) array of (col, row) pairs.

    ``raster`` is row-major order; ``random`` shuffles it with
    numpy.random.default_rng(seed), i.e. a Fisher-Yates pass driven by the
    PCG64 generator, so the order is reproducible across machines.
    """
    if kind not in ("raster", "random"):
        raise ValueError(f"kind must be 'raster' or 'random', got {kind!r}")
    if kind == "raster":
        return _pixel_pairs(np.arange(lat.size, dtype=np.int64), lat)
    return _pixel_pairs(np.random.default_rng(seed).permutation(lat.size), lat)


def load_permutation(text: str, lat: Lattice) -> np.ndarray:
    """Parse an offline visiting order: one 0-based row-major pixel index
    per line; blank lines and ``#`` comments are skipped. The indices must
    form a permutation of the whole lattice."""
    values = []
    for ln, line in enumerate(text.splitlines(), 1):
        s = line.split("#", 1)[0].strip()
        if not s:
            continue
        try:
            values.append(int(s))
        except ValueError:
            raise ValueError(f"permutation file line {ln}: not an integer: {s!r}")
    return _check_perm(_pixel_pairs(np.array(values, dtype=np.int64), lat), lat)


def _evaluator_for(cfg: McvConfig) -> PyramidEvaluator:
    return PyramidEvaluator(cfg.model(),
                            tuple(cfg.eval_window(i) for i in range(cfg.max_level, 0, -1)))


def _check_perm(perm: np.ndarray, lat: Lattice) -> np.ndarray:
    perm = np.asarray(perm)
    if perm.shape != (lat.size, 2):
        raise ValueError(f"permutation must list {lat.size} (col, row) pairs, "
                         f"got shape {perm.shape}")
    flat = (perm[:, 1] - 1) * lat.width + (perm[:, 0] - 1)
    if flat.min() < 0 or flat.max() >= lat.size:
        raise ValueError("permutation contains out-of-lattice pixels")
    seen = np.zeros(lat.size, dtype=bool)
    seen[flat] = True
    if not seen.all():
        raise ValueError("pixel sequence is not a permutation of the lattice")
    return perm


def _run_level_inplace(labels: np.ndarray, omega: ImageBuffer, level: int,
                       cfg: McvConfig, perm: np.ndarray,
                       pe: PyramidEvaluator | None) -> LevelStats:
    t0 = time.perf_counter()
    h, w = labels.shape
    clip_w0 = WindowGeom.of(cfg.w0).clip
    if cfg.merge_windows is None:
        clip_psi = WindowGeom.square(2 ** level).clip
    else:
        clip_psi = WindowGeom.of(cfg.merge_windows[level - 1]).clip
    # Direct mode is the pyramid with no aggregation step.
    top = cfg.eval_window(level)
    levels = (top,) if pe is None else pe.levels[pe.levels.index(top):]
    verdict = verdict_map(omega.samples, levels, cfg.model()).tolist()
    evaluations = 0
    accepted = 0
    next_label = int(labels.max()) + 1

    cols = (perm[:, 0] - 1).tolist()
    rows = (perm[:, 1] - 1).tolist()
    for c0, r0 in zip(cols, rows):
        center = labels[r0, c0]
        rs, cs, sub = clip_w0(r0, c0, h, w)
        block = labels[rs, cs]
        if sub is not None:
            block = block[sub]
        if not (block != center).any():
            continue

        evaluations += 1
        if not verdict[r0][c0]:
            continue

        _relabel(labels, *clip_psi(r0, c0, h, w), np.unique(block), next_label)
        accepted += 1
        next_label += 1

    regions = int(np.unique(labels).size)
    return LevelStats(level, evaluations, accepted, regions,
                      time.perf_counter() - t0)


def run_level(p: Partition, omega: ImageBuffer, i: int, cfg: McvConfig,
              perm: np.ndarray) -> tuple[Partition, LevelStats]:
    """Execute one level over a copy of ``p`` and return it with stats."""
    if p.lattice != omega.lattice:
        raise ValueError("partition and image live on different lattices")
    if not p.is_total:
        raise ValueError("run_level requires a total partition")
    if not 1 <= i <= cfg.max_level:
        raise ValueError(f"level {i} outside 1..{cfg.max_level}")
    perm = _check_perm(perm, p.lattice)
    pe = _evaluator_for(cfg) if cfg.eval_mode == "pyramid" else None
    labels = p.labels.copy()
    stats = _run_level_inplace(labels, omega, i, cfg, perm, pe)
    return Partition(p.lattice, labels), stats


def run_mcv(omega: ImageBuffer, cfg: McvConfig = McvConfig()) -> PartitionSequence:
    """Run all levels from the singleton partition.

    The same visiting order is reused at every level unless
    ``reshuffle_per_level`` asks for a fresh shuffle per level. Every
    recorded partition is canonicalized, so two runs agree iff their
    sequences compare equal. The result is fully determined by the image
    and the config. The run is single-threaded; ``cfg.workers`` is only
    recorded.
    """
    cfg.validate()
    lat = omega.lattice
    if cfg.permutation == "file":
        base = load_permutation(Path(cfg.perm_file).read_text(), lat)
    else:
        base = permutation(cfg.permutation, lat, cfg.seed)
    pe = None
    if cfg.eval_mode == "pyramid":
        try:
            pe = _evaluator_for(cfg)
        except ValueError as e:
            raise ConfigError(str(e)) from e

    labels = singletons_full(lat).labels
    snapshots = [canonicalize(Partition(lat, labels))]
    stats = [LevelStats(0, 0, 0, lat.size)]
    for i in range(1, cfg.max_level + 1):
        if cfg.reshuffle_per_level:
            order = permutation("random", lat, [cfg.seed, i])
        else:
            order = base
        st = _run_level_inplace(labels, omega, i, cfg, order, pe)
        snapshots.append(canonicalize(Partition(lat, labels)))
        stats.append(st)
    return PartitionSequence(cfg, snapshots, stats)
