"""Sequential level loop tying permutation, boundary test, homogeneity
evaluation, and windowed merging together.

Levels run in order with growing evaluation and merge windows, which
``McvConfig.eval_chain`` and ``McvConfig.merge_geom`` alone decide. The
homogeneity test reads only the raw image, the pixel and the level's
evaluation window chain, never the labels, so one verdict map scores
every pixel through a chain at once. ``run_mcv`` scores every level's
map before the first merge, through one cache of net maps
(``pyramid.verdict_maps``) that builds each layer and term map once
for the run and is dropped before the merges; levels with the same
chain share one verdict map. Then the pixels
are visited in a fixed permutation, an (N,) array of 0-based row-major
pixel indices all the way from the draw or the permutation file to the
merge loop. A pixel sitting on a label boundary counts as one
evaluation and reads its verdict, and an accepted verdict merges the
bordering blocks inside the level's merge window under a fresh label.
A level ends by renumbering the labels to canonical form, so they stay
below twice the pixel count at any level. The result is a
multiresolution sequence of partitions, deterministic for a given
configuration.

Each accepted merge reads the labels the previous one wrote, so merges
run in visit order on one thread, but ``_merge_level`` tests a chunk of
visits at once, then walks it in visit order: each accept merges where
it stands, and each visit whose reads an earlier merge of the chunk has
changed is re-tested in place. Every merge goes through
``partition._relabel`` and a bool table over labels, on its merge window
cut from ``WindowGeom.cuts``: a level clips the window once per lattice
row and once per lattice column, where every visit lies, as the clamped
arithmetic needs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .geometry import (FIVE_NEIGHBORHOOD, Lattice, NINE_NEIGHBORHOOD, Window,
                       WindowGeom, _axis_cuts, _integer, _w0_reads, dilate)
from .partition import Partition, _relabel, canonicalize, singletons_full
from .pnmio import ImageBuffer, _decimal
from .pyramid import METRIC_ALIASES, MrfModel, check_chain, verdict_map, verdict_maps


class ConfigError(ValueError):
    """Invalid run configuration, raised before any pixel is touched."""


PERMUTATION_KINDS = ("raster", "random", "file")
EVAL_MODES = ("direct", "pyramid")


@dataclass(frozen=True)
class McvConfig:
    """Everything a run depends on.

    ``neighborhood`` picks the base adjacency (8 = 3x3 block, 4 = cross).
    Evaluation windows default to the i-fold dilation of the base
    neighborhood, merge windows to squares of radius 2^i; both sequences
    can be overridden with explicit per-level windows, which must nest
    (in pyramid mode, ``eval_chain(max_level)`` must pass
    ``pyramid.check_chain``). ``eval_chain`` and
    ``merge_geom`` give the windows each level runs with. ``rho`` thresholds
    the per-pixel energy, so it is comparable across window sizes.
    ``workers`` is validated and recorded in ``stats.txt`` but changes
    nothing: a level's merges run in visit order (``_merge_level``).
    """

    max_level: int = 9
    permutation: str = "random"
    seed: int = 0
    perm_file: str | os.PathLike | None = None
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

    def eval_chain(self, level: int) -> tuple[Window, ...]:
        """The coarse-ward window chain level ``level`` is scored through:
        its eval window alone in direct mode, or the eval windows of
        levels ``level``..1 in pyramid mode, each step down one layer."""
        if self.eval_mode == "direct":
            return (self.eval_window(level),)
        return tuple(self.eval_window(i) for i in range(level, 0, -1))

    def merge_geom(self, level: int) -> WindowGeom:
        """The level's merge window as a ``WindowGeom`` to clip with; the
        default square of radius 2^level is never materialized."""
        if not 1 <= level <= self.max_level:
            raise ValueError(f"level {level} outside 1..{self.max_level}")
        if self.merge_windows is not None:
            return WindowGeom.of(self.merge_windows[level - 1])
        return WindowGeom.square(2 ** level)

    def validate(self) -> None:
        for name in ("max_level", "seed", "neighborhood", "workers"):
            value = getattr(self, name)
            if not _integer(value):
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
        if self.permutation == "file" and not (
                isinstance(self.perm_file, (str, os.PathLike)) and self.perm_file):
            raise ConfigError(f"permutation=file needs perm_file, a path, got {self.perm_file!r}")
        if not isinstance(self.reshuffle_per_level, (bool, np.bool_)):
            raise ConfigError(f"reshuffle_per_level must be a bool, "
                              f"got {self.reshuffle_per_level!r}")
        if self.reshuffle_per_level and self.permutation != "random":
            raise ConfigError("reshuffle_per_level needs permutation=random")
        if self.neighborhood not in (4, 8):
            raise ConfigError(f"neighborhood must be 4 or 8, got {self.neighborhood}")
        if not isinstance(self.metric, str) or self.metric not in METRIC_ALIASES:
            raise ConfigError(f"metric must be one of {sorted(METRIC_ALIASES)}, "
                              f"got {self.metric!r}")
        if self.eval_mode not in EVAL_MODES:
            raise ConfigError(f"eval_mode must be one of {EVAL_MODES}, "
                              f"got {self.eval_mode!r}")
        try:
            self.model()
        except (TypeError, ValueError) as e:
            raise ConfigError(str(e)) from e
        for name, seq in (("eval_windows", self.eval_windows),
                          ("merge_windows", self.merge_windows)):
            if seq is None:
                continue
            if not isinstance(seq, Sequence) or not all(isinstance(win, Window) for win in seq):
                raise ConfigError(f"{name} must be a sequence of Window objects")
            if len(seq) != self.max_level:
                raise ConfigError(f"{name} must list one window per level "
                                  f"({self.max_level}), got {len(seq)}")
            if name == "eval_windows" and self.eval_mode == "pyramid":
                continue  # the chain check below
            for i in range(len(seq) - 1):
                if not set(seq[i].offsets) <= set(seq[i + 1].offsets):
                    raise ConfigError(f"{name}[{i}] is not contained in {name}[{i + 1}]")
        if self.eval_mode == "pyramid":
            try:
                check_chain(self.eval_chain(self.max_level))
            except ValueError as e:
                raise ConfigError(f"eval_chain({self.max_level}): {e}") from e


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


#: ``int`` marks a key whose value is read by ``pnmio._decimal``, the one
#: rule for integers in text: ASCII digits, an optional sign.
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
            out[key] = _decimal(raw, key) if parser is int else parser(raw)
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


def permutation(kind: str, lat: Lattice, seed: int | Sequence[int] = 0) -> np.ndarray:
    """Pixel visiting order as an (N,) array of 0-based row-major pixel
    indices, the permutation file's format.

    ``raster`` is row-major order; ``random`` shuffles it with
    numpy.random.default_rng(seed), i.e. a Fisher-Yates pass driven by the
    PCG64 generator, so the order is reproducible across machines.
    """
    if kind not in ("raster", "random"):
        raise ValueError(f"kind must be 'raster' or 'random', got {kind!r}")
    if kind == "raster":
        return np.arange(lat.size, dtype=np.int64)
    return np.random.default_rng(seed).permutation(lat.size)


def load_permutation(text: str, lat: Lattice) -> np.ndarray:
    """Parse an offline visiting order: one 0-based row-major pixel index
    per line, in ASCII digits as in a label CSV cell; blank lines and
    ``#`` comments are skipped. The indices must form a permutation of the
    whole lattice."""
    values = []
    for ln, line in enumerate(text.splitlines(), 1):
        s = line.split("#", 1)[0].strip()
        if not s:
            continue
        values.append(_decimal(s, f"permutation file line {ln}"))
        if not 0 <= values[-1] < lat.size:
            raise ValueError(f"permutation file line {ln}: {s} is not a pixel index")
    return _check_perm(np.array(values, dtype=np.int64), lat)


def _check_perm(perm: np.ndarray, lat: Lattice) -> np.ndarray:
    perm = np.asarray(perm)
    if perm.shape != (lat.size,) or perm.dtype.kind not in "iu":
        raise ValueError(f"permutation must list {lat.size} pixel indices, "
                         f"got shape {perm.shape} of {perm.dtype}")
    if perm.min() < 0 or perm.max() >= lat.size:
        raise ValueError("permutation contains out-of-lattice pixels")
    seen = np.zeros(lat.size, dtype=bool)
    seen[perm] = True
    if not seen.all():
        raise ValueError("pixel sequence is not a permutation of the lattice")
    # intp: the merge loop's key arithmetic goes below zero and past N,
    # which an unsigned or narrow order would wrap or refuse.
    return perm.astype(np.intp)


#: Visits in a merge chunk's boundary-test gather. A chunk always runs to
#: its end; one with no accept doubles the next chunk, up to
#: MERGE_CHUNK_MAX, and one with an accept resets it to MERGE_CHUNK.
MERGE_CHUNK = 32
MERGE_CHUNK_MAX = 256

#: _LATER[a, j]: visit j of a merge chunk comes after visit a.
_LATER = np.arange(MERGE_CHUNK_MAX) > np.arange(MERGE_CHUNK_MAX)[:, None]


def _merge_level(labels: np.ndarray, verdict: np.ndarray, perm: np.ndarray,
                 w0: Window, psi: WindowGeom, reads: np.ndarray) -> tuple[int, int]:
    """Visit the row-major pixel indices of ``perm`` in order on
    ``labels``, in place. A visit whose w0-window holds another label is
    one evaluation; if its bool ``verdict`` is set, the pixels of its
    psi-window whose label is in its w0-window take a fresh label.
    ``reads`` is ``geometry._w0_reads(w0, h, w)``. Returns (evaluations,
    accepted).

    Visits are tested a chunk at a time in one gather of their ``reads``
    rows, which hold exactly the clipped w0-window, for any w0. A visit is
    stale when its w0 box meets the merge box of an earlier accept in the
    chunk: psi's bounding box dilated by w0's, set in a bool table
    over (row, column) offsets between visits. The chunk is then walked
    once, in visit order, over its accepts and its stale visits. A stale
    visit's reads are gathered again; if they differ from the chunk's
    gather, it is re-tested on them, ``evaluations`` takes the difference
    of its two boundary tests, and if it now accepts where the chunk did
    not, its near box joins the stale set and the walk. An accept merges
    where it stands, with the next fresh label inside its psi box: its
    row's and its column's cut from ``WindowGeom.cuts``, taken once per
    level and picked by ``divmod`` of its pixel index by the width. This
    loop is the one place that combines a row cut and a column cut,
    inline (a call per accept cost about 5%). That cut is exact, since a box
    clipped to the lattice is its row interval clipped to the rows times
    its column interval clipped to the columns: the first depends on the
    visit's row alone, the second on its column alone, and the mask's cut
    is the product of the offsets that each keeps. The loop is the
    one-visit-at-a-time loop exactly: a merge changes no label outside
    its psi box, so every visit whose reads an earlier merge could have
    changed is stale (a mark left by a dropped accept costs one
    re-check), and every test that stands read the labels that loop
    reads. So every test and every merge's targets are that loop's, and
    each merge makes one ``_relabel`` call, as there. No chunk is cut, so
    its length follows the accepts: a chunk without one doubles the next,
    up to ``MERGE_CHUNK_MAX``, where accepts are rare, and one with an
    accept resets it to ``MERGE_CHUNK``, which keeps the (accepts x
    chunk) stale table small where they are dense. A merge flags its
    targets in one bool table over labels: below ``labels.max() + 1``,
    plus one fresh label per visit at most, so 2N entries on a level that
    starts canonical. The loop runs on a C-ordered intp copy of
    ``labels``, written back at the end, and on intp read rows, because
    NumPy indexes faster with intp; the walk reads its test and stale
    flags and its visits' pixel indices, and compares and re-tests a
    re-gathered read row, as lists, which costs fewer NumPy calls. A
    round gathers its accepts' rows of the triangle ``_LATER`` (visit j
    after visit a) with ``take`` along axis 0, which picks the same rows
    as fancy indexing at about half its cost.
    """
    h, w = labels.shape
    work = labels.astype(np.intp, order="C")
    flat, neighbors, hits = work.reshape(-1), reads[perm].astype(np.intp), verdict.ravel()[perm]
    (row_cuts, col_cuts), mask = psi.cuts(h, w), psi.mask
    # near[key_j - key_a]: visit j reads inside visit a's merge box; the
    # table is rolled so that a negative offset indexes it from the end.
    x0, x1, y0, y1 = w0.bbox()
    near = np.zeros((2 * h - 1, 2 * w - 1), dtype=bool)
    near[_axis_cuts(psi.by0 - y1, psi.by1 - y0, 2 * h - 1, [h - 1], False)[0][0],
         _axis_cuts(psi.bx0 - x1, psi.bx1 - x0, 2 * w - 1, [w - 1], False)[0][0]] = True
    near = np.roll(near.reshape(-1), -((h - 1) * (2 * w - 1) + w - 1))
    keys = perm + perm // w * (w - 1)  # row * (2w - 1) + column
    fresh = int(work.max()) + 1
    table = np.zeros(fresh + len(perm), dtype=bool)
    evaluations = accepted = pos = 0
    size = MERGE_CHUNK
    while pos < len(perm):
        block = flat[neighbors[pos : pos + size]]
        n = len(block)
        boundary = np.logical_or.reduce(block != block[:, :1], axis=1)
        test = boundary & hits[pos : pos + size]
        acc = test.nonzero()[0]
        evaluations += int(np.count_nonzero(boundary))
        if len(acc):
            key = keys[pos : pos + n]
            stale = np.logical_or.reduce(near[key - key[acc][:, None]]
                                         & _LATER.take(acc, 0)[:, :n])
            # The walk: every accept and stale visit, in visit order.
            todo, k = (stale | test).nonzero()[0].tolist(), 0
            tests, stales, visits = test.tolist(), stale.tolist(), perm[pos : pos + n].tolist()
            while k < len(todo):
                j = todo[k]
                k += 1
                row, hit = block[j], tests[j]
                if stales[j]:
                    now = flat[neighbors[pos + j]]
                    seen = now.tolist()
                    if seen != row.tolist():
                        edge = seen.count(seen[0]) < len(seen)
                        evaluations += edge - int(boundary[j])
                        # A planned accept's near box is marked already; a
                        # new accept marks its own and walks the rest anew.
                        if edge and hits[pos + j] and not hit:
                            stale[j:] |= near[key[j:] - key[j]]
                            stales = stale.tolist()
                            todo, k = ((stale | test)[j + 1 :].nonzero()[0] + (j + 1)).tolist(), 0
                        row, hit = now, edge and hits[pos + j]
                if hit:
                    table[row] = True
                    r, c = divmod(visits[j], w)
                    (rs, rm), (cs, cm) = row_cuts[r], col_cuts[c]
                    _relabel(work, rs, cs, None if mask is None else mask[rm, cm], table, fresh)
                    table[row] = False
                    fresh += 1
                    accepted += 1
        size = MERGE_CHUNK if len(acc) else min(2 * size, MERGE_CHUNK_MAX)
        pos += n
    labels[...] = work
    return evaluations, accepted


def _check_label_room(lat: Lattice) -> None:
    """A level's labels stay below 2N on N pixels; reject N > 2**30."""
    if 2 * lat.size - 1 > np.iinfo(np.int32).max:
        raise ValueError(f"{lat.width}x{lat.height} lattice too large for int32 labels")


def _run_level_inplace(labels: np.ndarray, omega: ImageBuffer, level: int,
                       cfg: McvConfig, perm: np.ndarray, verdict: np.ndarray,
                       reads: np.ndarray) -> LevelStats:
    evaluations, accepted = _merge_level(labels, verdict, perm, cfg.w0,
                                         cfg.merge_geom(level), reads)
    labels[...] = canonicalize(Partition(omega.lattice, labels)).labels
    return LevelStats(level, evaluations, accepted, int(labels.max()) + 1)


def run_level(p: Partition, omega: ImageBuffer, i: int, cfg: McvConfig,
              perm: np.ndarray) -> tuple[Partition, LevelStats]:
    """Execute one level over a copy of ``p``, visiting the row-major
    pixel indices of ``perm``, and return the result, in canonical form,
    with stats."""
    cfg.validate()
    _check_label_room(p.lattice)
    if p.lattice != omega.lattice:
        raise ValueError("partition and image live on different lattices")
    if not p.is_total:
        raise ValueError("run_level requires a total partition")
    if not 1 <= i <= cfg.max_level:
        raise ValueError(f"level {i} outside 1..{cfg.max_level}")
    perm = _check_perm(perm, p.lattice)
    labels = canonicalize(p).labels
    verdict = verdict_map(omega.samples, cfg.eval_chain(i), cfg.model())
    reads = _w0_reads(cfg.w0, *labels.shape)
    stats = _run_level_inplace(labels, omega, i, cfg, perm, verdict, reads)
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
    _check_label_room(lat)
    if cfg.permutation == "file":
        base = load_permutation(Path(cfg.perm_file).read_text(), lat)
    elif not cfg.reshuffle_per_level:  # a reshuffled run draws each level's order
        base = permutation(cfg.permutation, lat, cfg.seed)
    labels = singletons_full(lat).labels
    snapshots = [Partition(lat, labels.copy())]
    stats = [LevelStats(0, 0, 0, lat.size)]
    verdicts = verdict_maps(omega.samples, [cfg.eval_chain(i) for i in range(1, cfg.max_level + 1)],
                            cfg.model())
    reads = _w0_reads(cfg.w0, lat.height, lat.width)
    for i, verdict in enumerate(verdicts, 1):
        if cfg.reshuffle_per_level:
            order = permutation("random", lat, [cfg.seed, i])
        else:
            order = base
        st = _run_level_inplace(labels, omega, i, cfg, order, verdict, reads)
        snapshots.append(Partition(lat, labels.copy()))
        stats.append(st)
    return PartitionSequence(cfg, snapshots, stats)
