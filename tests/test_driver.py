import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcvseg import driver, pyramid
from mcvseg.driver import (ConfigError, McvConfig, config_updates,
                           load_permutation, permutation, run_level, run_mcv)
from mcvseg.geometry import (FIVE_NEIGHBORHOOD, Lattice, NINE_NEIGHBORHOOD,
                             Window, WindowGeom, _w0_reads, dilate, square_window)
from mcvseg.partition import Partition, canonicalize, same_partition, singletons_full
from mcvseg.pnmio import ImageBuffer

from oracles import chain_energy_per_pixel, merge_level_reference, run_mcv_reference


def gray(values, max_value=255):
    arr = np.asarray(values, dtype=np.float64)
    lat = Lattice(arr.shape[1], arr.shape[0])
    return ImageBuffer(lat, 1, arr[:, :, None], max_value)


def _pixel_pairs(perm, width):
    """The 1-based (col, row) pixels the oracles take, of row-major indices."""
    return [(i % width + 1, i // width + 1) for i in perm.tolist()]


def test_permutation_raster_two_by_two():
    lat = Lattice(2, 2)
    assert permutation("raster", lat).tolist() == [0, 1, 2, 3]


def test_permutation_random_deterministic():
    lat = Lattice(5, 4)
    a = permutation("random", lat, seed=3)
    b = permutation("random", lat, seed=3)
    c = permutation("random", lat, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_permutation_random_covers_lattice():
    lat = Lattice(3, 3)
    out = permutation("random", lat, seed=0)
    assert out.shape == (9,)
    assert sorted(out.tolist()) == list(range(9))


def test_permutation_rejects_unknown_kind():
    with pytest.raises(ValueError):
        permutation("zigzag", Lattice(2, 2))


def test_load_permutation_good():
    lat = Lattice(2, 2)
    text = "# visiting order\n3\n2\n1\n0\n"
    out = load_permutation(text, lat)
    assert out.tolist() == [3, 2, 1, 0]


def test_load_permutation_errors():
    lat = Lattice(2, 1)
    with pytest.raises(ValueError):
        load_permutation("0\n", lat)  # wrong count
    with pytest.raises(ValueError):
        load_permutation("0\n0\n", lat)  # duplicate
    with pytest.raises(ValueError):
        load_permutation("0\n5\n", lat)  # out of range
    with pytest.raises(ValueError):
        load_permutation("0\nx\n", lat)  # not an integer


@pytest.mark.parametrize("spelling", ["1_1", "\u0661\u0661", "+1_1", " 1 1"],
                         ids=["underscore", "arabic-indic", "signed-underscore", "split"])
def test_load_permutation_reads_ascii_digits_only(spelling):
    """``int`` reads "1_1" and Arabic-Indic "11" as 11, a pixel of this
    lattice; the file takes ASCII digits only, as a label CSV cell does,
    and the error names the line."""
    lat = Lattice(4, 3)
    lines = [str(i) for i in range(11)] + [spelling]
    assert load_permutation("\n".join(lines[:11] + ["11"]), lat).tolist() == list(range(12))
    with pytest.raises(ValueError, match=r"line 12: not an integer"):
        load_permutation("# order\n" + "\n".join(lines[1:]) + "\n0\n", lat)


def test_load_permutation_past_the_int_digit_limit():
    """A zero-padded index of 5000 digits is the index it spells; one
    with more significant digits than ``int`` converts (4300 by default)
    is refused with its line."""
    lat = Lattice(2, 1)
    assert load_permutation("1\n" + "0" * 5000 + "\n", lat).tolist() == [1, 0]
    with pytest.raises(ValueError) as exc:
        load_permutation("0\n# index\n" + "1" * 5000 + "\n", lat)
    assert str(exc.value) == "permutation file line 3: integer too long: 5000 characters"


def test_config_validation():
    McvConfig().validate()
    with pytest.raises(ConfigError):
        McvConfig(max_level=0).validate()
    with pytest.raises(ConfigError):
        McvConfig(workers=0).validate()
    with pytest.raises(ConfigError):
        McvConfig(permutation="sorted").validate()
    with pytest.raises(ConfigError):
        McvConfig(permutation="file").validate()
    for value in (5, b"perm.txt", ""):
        with pytest.raises(ConfigError, match="perm_file"):
            McvConfig(permutation="file", perm_file=value).validate()
    McvConfig(permutation="file", perm_file=Path("perm.txt")).validate()
    with pytest.raises(ConfigError):
        McvConfig(reshuffle_per_level=True, permutation="raster").validate()
    with pytest.raises(ConfigError):
        McvConfig(neighborhood=6).validate()
    with pytest.raises(ConfigError):
        McvConfig(metric="cosine").validate()
    with pytest.raises(ConfigError):
        McvConfig(eval_mode="magic").validate()
    with pytest.raises(ConfigError):
        McvConfig(rho=-1.0).validate()
    with pytest.raises(ConfigError):
        McvConfig(rho=float("nan")).validate()
    with pytest.raises(ConfigError):
        McvConfig(seed=-1).validate()
    with pytest.raises(ConfigError):
        McvConfig(rho="1").validate()
    with pytest.raises(ConfigError):
        McvConfig(temperature=None).validate()
    for field, value in (("max_level", 1.5), ("seed", 1.5), ("neighborhood", 8.0),
                         ("workers", 2.5), ("max_level", "2"), ("max_level", True),
                         ("seed", False), ("neighborhood", True), ("workers", True)):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            McvConfig(**{field: value}).validate()
    for field, value in (("rho", True), ("rho", np.True_), ("temperature", True),
                         ("temperature", np.False_)):
        with pytest.raises(ConfigError, match=f"{field} must be a number"):
            McvConfig(**{field: value}).validate()
    McvConfig(max_level=np.int64(2), seed=np.uint8(3), workers=np.int32(2)).validate()
    with pytest.raises(ConfigError):
        McvConfig(max_level=2, eval_windows=(NINE_NEIGHBORHOOD,)).validate()
    with pytest.raises(ConfigError):
        McvConfig(max_level=2, merge_windows=(square_window(2),
                                              square_window(1))).validate()
    # Pinned eval windows nest, but not strictly: direct mode only.
    pinned = McvConfig(max_level=2, eval_windows=(NINE_NEIGHBORHOOD,) * 2)
    pinned.validate()
    with pytest.raises(ConfigError, match="strictly"):
        replace(pinned, eval_mode="pyramid").validate()
    # Entries that are not Windows are caught even when no nesting check runs.
    for field in ("eval_windows", "merge_windows"):
        for value in ((3,), ("w",), 3):
            with pytest.raises(ConfigError, match=field):
                McvConfig(max_level=1, **{field: value}).validate()
    for value in ("no", 1, None):
        with pytest.raises(ConfigError, match="reshuffle_per_level"):
            McvConfig(reshuffle_per_level=value).validate()
    McvConfig(reshuffle_per_level=np.bool_(True)).validate()
    with pytest.raises(ConfigError, match="metric"):
        McvConfig(metric=["l2"]).validate()


def test_config_window_defaults():
    cfg = McvConfig(max_level=3)
    assert cfg.w0 == NINE_NEIGHBORHOOD
    assert cfg.eval_window(2) == dilate(NINE_NEIGHBORHOOD, 2)
    assert cfg.merge_geom(1) == WindowGeom.of(square_window(2))
    assert cfg.merge_geom(3) == WindowGeom.of(square_window(8))
    assert McvConfig(neighborhood=4).w0 == FIVE_NEIGHBORHOOD
    with pytest.raises(ValueError):
        cfg.eval_window(4)
    for level in (0, 4):
        with pytest.raises(ValueError):
            cfg.merge_geom(level)
    assert cfg.eval_chain(3) == (cfg.eval_window(3),)
    assert replace(cfg, eval_mode="pyramid").eval_chain(3) == tuple(
        dilate(NINE_NEIGHBORHOOD, i) for i in (3, 2, 1))
    assert cfg.merge_geom(3) == WindowGeom.square(8)
    # The default merge square of a high level is never materialized.
    t0 = time.perf_counter()
    assert McvConfig(max_level=30).merge_geom(30) == WindowGeom.square(2 ** 30)
    assert time.perf_counter() - t0 < 0.1
    diamonds = McvConfig(max_level=2, merge_windows=tuple(
        dilate(FIVE_NEIGHBORHOOD, 2 * i) for i in (1, 2)))
    for i in (1, 2):
        geom, want = diamonds.merge_geom(i), WindowGeom.of(diamonds.merge_windows[i - 1])
        assert geom.mask is not None
        assert (geom.bx0, geom.bx1, geom.by0, geom.by1) == (want.bx0, want.bx1,
                                                             want.by0, want.by1)
        assert np.array_equal(geom.mask, want.mask)


def test_eval_chains_at_max_level_20_are_fast_and_exact():
    """Each dilation extends the one before it, so all 20 pyramid chains
    and the chain check together stay cheap."""
    t0 = time.perf_counter()
    cfg = McvConfig(max_level=20, eval_mode="pyramid")
    chains = [cfg.eval_chain(i) for i in range(1, 21)]
    cfg.validate()
    assert time.perf_counter() - t0 < 0.1
    # The i-fold dilation of the 3x3 block is the square of radius i.
    for i, chain in enumerate(chains, 1):
        assert chain == tuple(square_window(j) for j in range(i, 0, -1))
    diamond = replace(cfg, neighborhood=4).eval_window(20)
    assert set(diamond.offsets) == {(dx, dy) for dx in range(-20, 21)
                                    for dy in range(-20, 21) if abs(dx) + abs(dy) <= 20}


def test_config_updates_parsing():
    text = """
    # run setup
    max_level = 3
    permutation=raster
    rho = 2.5
    reshuffle_per_level = false
    workers=2
    """
    updates = config_updates(text)
    assert updates == {"max_level": 3, "permutation": "raster", "rho": 2.5,
                       "reshuffle_per_level": False, "workers": 2}
    with pytest.raises(ConfigError):
        config_updates("volume = 11\n")
    with pytest.raises(ConfigError):
        config_updates("max_level\n")
    with pytest.raises(ConfigError):
        config_updates("workers = many\n")
    assert config_updates("reshuffle_per_level = yes\n") == {"reshuffle_per_level": True}
    with pytest.raises(ConfigError, match=r"^config line 1: not a boolean: 'maybe'$"):
        config_updates("reshuffle_per_level = maybe\n")
    # Integers are ASCII digits with an optional sign, as in a permutation
    # file or a label CSV: no digit separators, no other scripts' digits.
    assert config_updates("seed = 0042\nmax_level = +3\n") == {"seed": 42, "max_level": 3}
    for key, raw in (("seed", "1_000"), ("neighborhood", "\u0668"), ("workers", "\uff12"),
                     ("max_level", "3.0")):
        with pytest.raises(ConfigError, match=rf"^config line 2: {key}: not an integer: "):
            config_updates(f"rho = 1\n{key} = {raw}\n")


def test_metric_aliases_accepted():
    assert McvConfig(metric="l2").model().metric == "euclidean"
    assert McvConfig(metric="l1").model().metric == "per_band_abs"


def test_run_level_constant_image_merges():
    img = gray(np.full((6, 6), 9.0))
    cfg = McvConfig(max_level=2, rho=1.0)
    p0 = singletons_full(img.lattice)
    perm = permutation("raster", img.lattice)
    p1, stats = run_level(p0, img, 1, cfg, perm)
    assert stats.level == 1
    assert stats.evaluations > 0
    assert stats.accepted > 0
    assert p1.block_count() < img.lattice.size
    assert stats.region_count == p1.block_count()
    # input partition untouched
    assert p0.block_count() == img.lattice.size


def test_run_level_rho_zero_on_noise_changes_nothing():
    rng = np.random.default_rng(7)
    img = gray(rng.random((6, 6)) * 100)
    cfg = McvConfig(max_level=1, rho=0.0)
    p0 = singletons_full(img.lattice)
    p1, stats = run_level(p0, img, 1, cfg, permutation("raster", img.lattice))
    assert stats.accepted == 0
    assert same_partition(p0, p1)
    assert stats.evaluations > 0


def test_run_level_two_tone_never_mixes():
    vals = np.zeros((8, 8))
    vals[:, 4:] = 200.0
    img = gray(vals)
    cfg = McvConfig(max_level=3, rho=1.0, seed=1)
    p = singletons_full(img.lattice)
    perm = permutation("random", img.lattice, seed=1)
    for level in (1, 2, 3):
        p, _ = run_level(p, img, level, cfg, perm)
        for block in p.blocks().values():
            tones = {vals[r - 1, c - 1] for c, r in block}
            assert len(tones) == 1


def test_run_level_returns_canonical_partition():
    """A level ends with its labels renumbered 0..K-1 by first raster
    occurrence, so the next level's fresh labels stay below 2N."""
    rng = np.random.default_rng(11)
    vals = np.repeat([[10.0, 200.0]], 8, axis=0).repeat(4, axis=1)
    img = gray(vals + rng.normal(0, 1, size=vals.shape))
    cfg = McvConfig(max_level=2, rho=5.0, seed=2)
    p = singletons_full(img.lattice)
    perm = permutation("random", img.lattice, seed=2)
    for level in (1, 2):
        p, stats = run_level(p, img, level, cfg, perm)
        assert stats.accepted > 0
        assert np.array_equal(p.labels, canonicalize(p).labels)
        assert stats.region_count == p.labels.max() + 1 == p.block_count()


def test_run_level_validates_inputs():
    img = gray(np.zeros((3, 3)))
    cfg = McvConfig(max_level=1)
    p = singletons_full(img.lattice)
    perm = permutation("raster", img.lattice)
    with pytest.raises(ValueError):
        run_level(p, img, 2, cfg, perm)
    pairs = np.stack([perm % 3 + 1, perm // 3 + 1], axis=1)  # (col, row), not indices
    for bad in (perm[:-1], perm.astype(float), pairs):
        with pytest.raises(ValueError):
            run_level(p, img, 1, cfg, bad)
    with pytest.raises(ValueError):
        run_level(singletons_full(Lattice(2, 2)), img, 1, cfg, perm)
    # A malformed config is refused as run_mcv refuses it, not run with a
    # fallback or left to fail inside the level.
    img = gray(np.arange(16.0).reshape(4, 4))
    p, perm = singletons_full(img.lattice), permutation("raster", img.lattice)
    for bad in (McvConfig(max_level=1, neighborhood=6),
                McvConfig(max_level=1, eval_mode="pyramidd"),
                McvConfig(max_level=1, metric="bogus"),
                McvConfig(max_level=2, eval_windows=(NINE_NEIGHBORHOOD,))):
        with pytest.raises(ConfigError):
            run_level(p, img, bad.max_level, bad, perm)


@pytest.mark.parametrize("lat", [Lattice(2**30 + 1, 1), Lattice(2**16, 2**16)],
                         ids=["line", "square"])
def test_lattices_beyond_int32_labels_rejected(lat):
    """Over 2**30 pixels a level's fresh labels could pass int32, so both
    entry points refuse before allocating anything for the lattice."""
    huge = SimpleNamespace(lattice=lat)
    with pytest.raises(ValueError, match="int32 labels"):
        run_mcv(huge, McvConfig(max_level=1))
    with pytest.raises(ValueError, match="int32 labels"):
        run_level(huge, huge, 1, McvConfig(max_level=1), None)


@pytest.mark.parametrize("height, width", [(1, 9), (9, 1), (5, 7)], ids=["1xN", "Nx1", "5x7"])
@pytest.mark.parametrize("merge", [None, Window(((0, 0),))], ids=["default", "origin"])
def test_labels_stay_below_twice_the_pixel_count_inside_a_level(height, width, merge):
    """With every verdict true, every fresh label of every level stays
    below 2N on N pixels, and every level ends canonical. A merge window
    of the origin alone is the worst case: each visit accepts and leaves
    its pixel a boundary, so every level hands out every label up to
    2N - 1."""
    n, levels = height * width, 12
    img = gray(np.random.default_rng(7).uniform(0, 255, (height, width)))
    cfg = McvConfig(max_level=levels, rho=float("inf"),
                    eval_windows=(NINE_NEIGHBORHOOD,) * levels,
                    merge_windows=None if merge is None else (merge,) * levels)
    with mock.patch.object(driver, "_relabel", side_effect=driver._relabel) as spy:
        seq = run_mcv(img, cfg)
    fresh = [call.args[5] for call in spy.call_args_list]
    assert max(fresh) == 2 * n - 1 if merge is not None else max(fresh) < 2 * n
    assert all(np.array_equal(p.labels, canonicalize(p).labels) for p in seq.levels)


def test_run_level_accepts_any_total_labeling():
    """Only which pixels share a label matters: an input with large,
    negative or gapped labels gives the run from its canonical form."""
    rng = np.random.default_rng(5)
    img = gray(rng.integers(0, 3, size=(6, 7)) * 6.0)
    cfg = McvConfig(max_level=2, rho=30.0)
    perm = permutation("random", img.lattice, seed=1)
    base = rng.integers(0, 6, size=(6, 7))
    odd = np.array([-7, 2**31 - 1, 12, 0, -1000, 99])[base]
    for level in (1, 2):
        want = run_level(Partition(img.lattice, base), img, level, cfg, perm)
        got = run_level(Partition(img.lattice, odd), img, level, cfg, perm)
        assert 0 < want[1].accepted < want[1].evaluations
        assert np.array_equal(got[0].labels, want[0].labels)
        assert got[1].evaluations == want[1].evaluations
        assert got[1].accepted == want[1].accepted


def test_run_mcv_single_pixel_image():
    img = gray([[42.0]])
    seq = run_mcv(img, McvConfig(max_level=3, rho=1.0))
    assert seq.region_counts() == [1, 1, 1, 1]
    assert all(lm.labels.tolist() == [[0]] for lm in seq.levels)


def test_run_mcv_level_zero_is_singletons():
    img = gray(np.zeros((2, 3)))
    seq = run_mcv(img, McvConfig(max_level=1, rho=1.0))
    assert seq.levels[0].labels.tolist() == [[0, 1, 2], [3, 4, 5]]
    assert seq.stats[0].region_count == 6


def test_run_mcv_constant_reaches_one_region():
    img = gray(np.full((16, 16), 77.0))
    seq = run_mcv(img, McvConfig(rho=1.0, seed=0))
    assert seq.stats[-1].region_count == 1
    assert len(seq.levels) == 10


def test_run_mcv_deterministic_and_worker_independent():
    rng = np.random.default_rng(11)
    img = gray(rng.integers(0, 4, size=(10, 10)).astype(np.float64) * 60)
    base = None
    for workers in (1, 3):
        cfg = McvConfig(max_level=3, rho=2.0, seed=5, workers=workers)
        seq = run_mcv(img, cfg)
        maps = [lm.labels.copy() for lm in seq.levels]
        if base is None:
            base = maps
        else:
            for a, b in zip(base, maps):
                assert np.array_equal(a, b)


def test_run_mcv_max_level_30_on_a_line():
    # the default merge window of level 30 is a square of radius 2**30;
    # materializing its offsets would never finish
    img = gray([[10.0, 10.0, 11.0, 200.0, 201.0, 200.0]])
    t0 = time.perf_counter()
    seq = run_mcv(img, McvConfig(max_level=30, rho=5.0,
                                 eval_windows=(NINE_NEIGHBORHOOD,) * 30))
    assert time.perf_counter() - t0 < 5.0
    assert seq.region_counts()[-1] == 2
    assert all(lm.labels.dtype == np.int32 for lm in seq.levels)
    row_cuts, col_cuts = WindowGeom.square(2 ** 30).cuts(1, 6)
    assert (row_cuts[0], col_cuts[2]) == ((slice(0, 1), None), (slice(0, 6), None))


def test_run_mcv_max_level_70_on_a_line():
    # merge windows of radius 2**64 and more: ``WindowGeom.cuts`` clamps
    # them to the lattice before its slice arithmetic
    img = gray([[10.0, 10.0, 11.0, 200.0, 201.0, 200.0]])
    seq = run_mcv(img, McvConfig(max_level=70, rho=5.0,
                                 eval_windows=(NINE_NEIGHBORHOOD,) * 70))
    assert seq.region_counts()[-1] == 2
    assert all(np.array_equal(lm.labels, seq.levels[30].labels) for lm in seq.levels[30:])


@pytest.mark.parametrize("pinned", [True, False], ids=["pinned", "default"])
def test_run_mcv_scores_one_verdict_map_per_distinct_chain(pinned):
    """Pinned eval windows give every level the same chain, so one energy
    map serves the run; default windows grow every level, one map each."""
    rng = np.random.default_rng(3)
    img = gray(rng.integers(0, 4, size=(12, 12)).astype(np.float64) * 60)
    cfg = McvConfig(max_level=4, rho=50.0)
    if pinned:
        cfg = replace(cfg, eval_windows=(cfg.w0,) * 4)
    with mock.patch.object(pyramid._NetMaps, "_energy", autospec=True,
                           side_effect=pyramid._NetMaps._energy) as spy:
        run_mcv(img, cfg)
    assert spy.call_count == (1 if pinned else 4)


@pytest.mark.parametrize("mode, layers, terms", [("direct", 0, 9), ("pyramid", 6, 63)])
def test_run_mcv_builds_each_net_map_once(mode, layers, terms):
    """A default 7-level direct run reads the same 9 term maps (the
    window's interior, 4 edges and 4 corners) at every level: 9 builds,
    not 63. A pyramid run's layer d is the d-fold g-mean at every level:
    6 layer builds, not 21, while its 9 term maps per level read a new
    layer each. On top of those, each of the 7 distinct chains takes
    one mean layer of term maps, its energy."""
    rng = np.random.default_rng(5)
    img = gray(rng.integers(0, 4, size=(10, 10)).astype(np.float64) * 60)
    cfg = McvConfig(max_level=7, rho=50.0, eval_mode=mode)
    with mock.patch.object(pyramid, "_site_terms", side_effect=pyramid._site_terms) as site, \
            mock.patch.object(pyramid, "_frame_means",
                              side_effect=pyramid._frame_means) as means:
        run_mcv(img, cfg)
    assert site.call_count == terms
    assert means.call_count == layers + terms + 7


def _fresh_verdict_maps(samples, chains, model):
    """``verdict_maps`` without a run cache: one fresh map per level."""
    return [pyramid.verdict_map(samples, levels, model) for levels in chains]


def _holed(radius, holes):
    return Window(tuple(set(square_window(radius).offsets) - set(holes)))


# Nested holed windows, fine-ward: each holds the one before, and each
# hole makes window positions of the next layer down read different maps.
HOLED = (_holed(1, [(1, 1)]),
         _holed(2, [(1, 1), (2, 2), (-2, 0), (0, 2)]),
         _holed(3, [(1, 1), (3, 3), (-3, 1), (0, 2), (2, -3)]))


@pytest.mark.parametrize("cfg", [
    McvConfig(max_level=3, rho=30.0, eval_mode="pyramid", eval_windows=HOLED),
    McvConfig(max_level=3, rho=30.0, eval_mode="pyramid", eval_windows=HOLED, metric="l1",
              neighborhood=4, reshuffle_per_level=True),
    McvConfig(max_level=3, rho=30.0, eval_windows=HOLED),
    McvConfig(max_level=5, rho=30.0, eval_windows=(HOLED[0],) * 2 + (HOLED[2],) * 3),
    McvConfig(max_level=4, rho=30.0, neighborhood=4, eval_windows=(FIVE_NEIGHBORHOOD,) * 4),
    McvConfig(max_level=5, rho=30.0),
    McvConfig(max_level=5, rho=30.0, eval_mode="pyramid"),
], ids=["holed-pyramid", "holed-pyramid-l1-4n", "holed-direct", "holed-direct-repeats",
        "pinned", "default-direct", "default-pyramid"])
def test_run_mcv_cache_matches_fresh_verdict_maps(cfg):
    """The run cache shares maps across levels and pads once; its
    verdicts, partitions and level counts are those of fresh per-level
    maps."""
    rng = np.random.default_rng(11)
    tones = rng.integers(0, 3, size=(3, 3, 2)).repeat(4, axis=0).repeat(4, axis=1)[:11, :10]
    samples = tones * 60.0 + rng.normal(0.0, 3.0, size=tones.shape)
    img = ImageBuffer(Lattice(10, 11), 2, samples, 255)
    chains = [cfg.eval_chain(i) for i in range(1, cfg.max_level + 1)]
    cached = pyramid.verdict_maps(samples, chains, cfg.model())
    fresh = _fresh_verdict_maps(samples, chains, cfg.model())
    assert all(np.array_equal(a, b) for a, b in zip(cached, fresh))
    assert 0 < sum(v.sum() for v in fresh) < sum(v.size for v in fresh)
    seq = run_mcv(img, cfg)
    with mock.patch.object(driver, "verdict_maps", _fresh_verdict_maps):
        ref = run_mcv(img, cfg)
    assert all(np.array_equal(a.labels, b.labels) for a, b in zip(seq.levels, ref.levels))
    counts = [(st.level, st.evaluations, st.accepted, st.region_count) for st in seq.stats]
    assert counts == [(st.level, st.evaluations, st.accepted, st.region_count)
                      for st in ref.stats]


def test_run_mcv_region_count_nonincreasing_with_default_windows():
    # every default level satisfies merge window >= eval window + base
    # window, which forbids net splits across a level
    rng = np.random.default_rng(13)
    img = gray(rng.integers(0, 3, size=(12, 12)).astype(np.float64) * 80)
    seq = run_mcv(img, McvConfig(max_level=4, rho=3.0, seed=2))
    counts = seq.region_counts()
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_run_mcv_permutation_file_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    img = gray(rng.integers(0, 2, size=(6, 6)).astype(np.float64) * 255)
    order = np.arange(36)
    rng.shuffle(order)
    path = tmp_path / "perm.txt"
    path.write_text("\n".join(str(i) for i in order) + "\n")
    cfg_file = McvConfig(max_level=2, rho=1.0, permutation="file",
                         perm_file=str(path))
    seq1 = run_mcv(img, cfg_file)
    seq2 = run_mcv(img, cfg_file)
    for a, b in zip(seq1.levels, seq2.levels):
        assert np.array_equal(a.labels, b.labels)


def test_run_mcv_pyramid_mode_runs_and_is_deterministic():
    rng = np.random.default_rng(19)
    img = gray(rng.integers(0, 3, size=(8, 8)).astype(np.float64) * 90)
    cfg = McvConfig(max_level=3, rho=2.0, seed=3, eval_mode="pyramid")
    seq1 = run_mcv(img, cfg)
    seq2 = run_mcv(img, cfg)
    for a, b in zip(seq1.levels, seq2.levels):
        assert np.array_equal(a.labels, b.labels)
    assert seq1.stats[1].evaluations > 0


def test_run_mcv_pyramid_matches_direct_at_level_one():
    # with one level there is no downsampling, so both modes must agree
    rng = np.random.default_rng(23)
    img = gray(rng.integers(0, 3, size=(7, 7)).astype(np.float64) * 70)
    direct = run_mcv(img, McvConfig(max_level=1, rho=2.0, seed=4))
    pyramid = run_mcv(img, McvConfig(max_level=1, rho=2.0, seed=4,
                                     eval_mode="pyramid"))
    assert np.array_equal(direct.final().labels, pyramid.final().labels)


def test_run_level_takes_any_integer_order_that_indexes_the_lattice():
    """A visiting order of any integer dtype that holds every pixel index
    runs a level as its int64 copy does: same labels and counts. On a
    100x200 lattice the merge loop's stale-test keys reach
    99 * 399 + 199 = 39700, past int16, and their differences go below
    zero, which an unsigned order cannot hold."""
    rng = np.random.default_rng(5)
    tones = rng.integers(0, 4, size=(10, 20)) * 40.0
    img = gray(np.kron(tones, np.ones((10, 10))) + rng.integers(0, 2, size=(100, 200)))
    cfg = McvConfig(max_level=2, rho=1.0)
    p = singletons_full(img.lattice)
    perm = permutation("random", img.lattice, seed=3)
    want, want_stats = run_level(p, img, 2, cfg, perm)
    assert want_stats.accepted > 0
    dtypes = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
    fits = [dt for dt in dtypes if np.iinfo(dt).max >= perm.size - 1]
    assert len(fits) == 6
    for dt in fits:
        got, stats = run_level(p, img, 2, cfg, perm.astype(dt))
        assert np.array_equal(got.labels, want.labels), dt
        assert stats == want_stats, dt


def test_run_mcv_reruns_compare_equal():
    """Two runs of one config compare equal, stats included; a sequence
    whose labels differ compares unequal, as its partitions do."""
    img = gray(np.full((7, 9), 5.0))
    cfg = McvConfig(max_level=2, rho=1.0)
    seq = run_mcv(img, cfg)
    assert seq == run_mcv(img, cfg)
    other = run_mcv(img, replace(cfg, seed=5))
    assert seq.levels[0] == other.levels[0]
    assert seq.levels[1] != other.levels[1]
    assert replace(other, config=cfg, stats=seq.stats) != seq


def test_run_mcv_reshuffle_flag():
    img = gray(np.full((8, 8), 5.0))
    cfg = McvConfig(max_level=2, rho=1.0, reshuffle_per_level=True, seed=6)
    seq1 = run_mcv(img, cfg)
    # each level draws its own order, and no level-free order is drawn
    with mock.patch.object(driver, "permutation", wraps=driver.permutation) as draws:
        seq2 = run_mcv(img, cfg)
    assert [c.args[2] for c in draws.call_args_list] == [[6, 1], [6, 2]]
    for a, b in zip(seq1.levels, seq2.levels):
        assert np.array_equal(a.labels, b.labels)


def test_run_mcv_four_neighborhood():
    vals = np.zeros((6, 6))
    vals[:, 3:] = 150.0
    seq = run_mcv(gray(vals), McvConfig(max_level=3, rho=1.0, neighborhood=4,
                                        seed=8))
    for lm in seq.levels:
        for block_label in np.unique(lm.labels):
            tones = np.unique(vals[lm.labels == block_label])
            assert tones.size == 1


def test_partition_sequence_accessors():
    img = gray(np.full((4, 4), 1.0))
    seq = run_mcv(img, McvConfig(max_level=2, rho=1.0))
    assert seq.final() is seq.levels[-1]
    assert seq.levels[0].block_count() == 16
    assert len(seq.region_counts()) == 3


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_run_mcv_matches_set_reference(data):
    """``run_mcv`` against the literal set-arithmetic loop, in direct
    mode and in pyramid mode with default windows: same partitions and
    same LevelStats counts at every level."""
    width = data.draw(st.integers(1, 10), label="width")
    height = data.draw(st.integers(1, 10), label="height")
    bands = data.draw(st.integers(1, 3), label="bands")
    tones = st.sampled_from((0, 1, 2, 60, 61, 200)) | st.integers(0, 255)
    flat = data.draw(st.lists(tones, min_size=width * height * bands,
                              max_size=width * height * bands), label="samples")
    samples = np.reshape(flat, (height, width, bands)).astype(np.float64)
    order = data.draw(st.sampled_from(("raster", "random", "reshuffle")), label="order")
    cfg = McvConfig(
        max_level=data.draw(st.integers(1, 3), label="levels"),
        permutation="raster" if order == "raster" else "random",
        reshuffle_per_level=order == "reshuffle",
        seed=data.draw(st.integers(0, 50), label="seed"),
        neighborhood=data.draw(st.sampled_from((4, 8)), label="neighborhood"),
        metric=data.draw(st.sampled_from(("l1", "l2")), label="metric"),
        rho=data.draw(st.floats(0.01, 3000.0), label="rho"),
    )
    pyramid = data.draw(st.booleans(), label="pyramid")
    pinned = not pyramid and data.draw(st.booleans(), label="pin eval windows")
    if pyramid:
        cfg = replace(cfg, eval_mode="pyramid")
    if pinned:
        cfg = replace(cfg, eval_windows=(cfg.w0,) * cfg.max_level)
    lat = Lattice(width, height)
    levels = range(1, cfg.max_level + 1)
    if order == "reshuffle":
        perms = [permutation("random", lat, [cfg.seed, i]) for i in levels]
    else:
        perms = [permutation(cfg.permutation, lat, cfg.seed)] * cfg.max_level
    values = {(c + 1, r + 1): tuple(float(v) for v in samples[r, c])
              for r in range(height) for c in range(width)}
    w0 = cfg.w0.offsets
    metric = cfg.model().metric
    # Level i is scored on dilate(w0, i) (w0 when pinned), in pyramid mode
    # downsampled through the windows of levels i - 1..1.
    chains = [[(cfg.w0 if pinned else dilate(cfg.w0, j)).offsets
               for j in (range(i, 0, -1) if pyramid else (i,))] for i in levels]
    # The reference adds in its own order: keep rho clear of every
    # window's energy per pixel by more than that order can move it.
    for chain in chains:
        for x in values:
            q = chain_energy_per_pixel(values, x, chain, w0, width, height, metric)
            assume(abs(q - cfg.rho) > 1e-9 * max(1.0, q, cfg.rho))

    want = run_mcv_reference(values, width, height,
                             [_pixel_pairs(perm, width) for perm in perms],
                             w0, chains, [square_window(2 ** i).offsets for i in levels],
                             cfg.rho, metric)
    got = run_mcv(ImageBuffer(lat, bands, samples, 255), cfg)
    for part, st_, (blocks, evaluations, accepted) in zip(got.levels, got.stats, want):
        labels = part.labels
        got_blocks = {frozenset((int(c) + 1, int(r) + 1) for r, c in np.argwhere(labels == k))
                      for k in np.unique(labels)}
        assert got_blocks == blocks
        assert (st_.evaluations, st_.accepted, st_.region_count) == (
            evaluations, accepted, len(blocks))


def _diamond(r):
    return Window(tuple((dx, dy) for dx in range(-r, r + 1) for dy in range(-r, r + 1)
                        if abs(dx) + abs(dy) <= r))


@pytest.mark.parametrize("w0", [
    Window(((0, 0), (2, 0), (-2, 0), (0, 2), (0, -2))), Window(((0, 0), (1, 0), (-1, 2))),
], ids=["far-cross", "one-sided"])
def test_merge_level_reads_any_w0_exactly(w0):
    """The merge loop reads ``_w0_reads`` rows, which hold exactly the
    clipped w0-window for any w0, so it matches the one-visit loop on
    windows that are not closed under dropping a coordinate or reach two
    steps, which a read clamped to the lattice edge gets wrong."""
    rng = np.random.default_rng(len(w0))
    for trial in range(40):
        height, width = (int(v) for v in rng.integers(1, 9, size=2))
        labels = rng.integers(0, (1, 2, 3, 2 * height * width)[trial % 4],
                              size=(height, width)).astype(np.int32)
        verdict = rng.random((height, width)) < 0.6
        perm = permutation("random", Lattice(width, height), trial)
        _check_merge_level(labels, verdict, perm, w0, (square_window(2), _diamond(3))[trial % 2])


#: Merge windows that are not symmetric about either axis, so a clip that
#: swaps a window's low and high rows or columns, or cuts the mask of one
#: axis from the other's offset, merges the wrong pixels: a masked
#: one-sided window and a maskless rectangle.
SKEWED_MERGE = {
    "one-sided": Window(((0, 0), (2, 0), (0, -1), (-1, 3))),
    "rectangle": Window(tuple((dx, dy) for dx in range(-1, 4) for dy in range(0, 3))),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_merge_level_matches_sequential_reference(data):
    """The chunked merge layer against the one-visit-at-a-time loop, on
    random label maps and random (not MRF) verdicts, so accept-dense and
    conflict-heavy chunks occur, and on symmetric and skewed merge
    windows: bitwise-equal labels before canonicalization, equal counts,
    and one ``_relabel`` call per accepted visit."""
    shape = data.draw(st.sampled_from(("grid", "row", "column")), label="shape")
    n = data.draw(st.integers(1, 24), label="n")
    if shape == "row":
        height, width = 1, n
    elif shape == "column":
        height, width = n, 1
    else:
        height = data.draw(st.integers(2, 9), label="height")
        width = data.draw(st.integers(2, 9), label="width")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    kinds = data.draw(st.sampled_from((1, 2, 3, 5, 2 * height * width)), label="labels")
    labels = rng.integers(0, kinds, size=(height, width)).astype(np.int32)
    accept_rate = data.draw(st.sampled_from((0.0, 0.2, 0.6, 1.0)), label="accept rate")
    verdict = rng.random((height, width)) < accept_rate
    lat = Lattice(width, height)
    kind = data.draw(st.sampled_from(("raster", "random")), label="order")
    perm = permutation(kind, lat, int(rng.integers(0, 1000)))
    w0 = data.draw(st.sampled_from((NINE_NEIGHBORHOOD, FIVE_NEIGHBORHOOD)), label="w0")
    merge = data.draw(st.sampled_from(("square", "diamond", "pinned", "one-sided",
                                       "rectangle")), label="merge")
    if merge == "square":
        psi = square_window(2 ** data.draw(st.integers(1, 3), label="level"))
    elif merge == "diamond":
        psi = _diamond(data.draw(st.integers(1, 4), label="radius"))
    elif merge in SKEWED_MERGE:
        psi = SKEWED_MERGE[merge]
    else:
        psi = w0

    _check_merge_level(labels, verdict, perm, w0, psi)


def _check_merge_level(labels, verdict, perm, w0, psi):
    """``_merge_level`` on ``labels``, in place, against
    ``merge_level_reference``: equal labels and counts, and one
    ``_relabel`` call per accepted visit."""
    want, evaluations, accepted = merge_level_reference(
        labels, verdict, _pixel_pairs(perm, labels.shape[1]), w0.offsets, psi.offsets)
    real = driver._relabel

    def bounded(*args):
        assert spy.call_count <= len(perm), "more merges than visits"
        real(*args)

    with mock.patch.object(driver, "_relabel", side_effect=bounded) as spy:
        got = driver._merge_level(labels, verdict, perm, w0, WindowGeom.of(psi),
                                  _w0_reads(w0, *labels.shape))
    assert np.array_equal(labels, want)
    assert got == (evaluations, accepted)
    assert spy.call_count == accepted


@pytest.mark.parametrize("w0", [NINE_NEIGHBORHOOD, FIVE_NEIGHBORHOOD], ids=["8n", "4n"])
@pytest.mark.parametrize("psi", [square_window(2), square_window(4), _diamond(3)],
                         ids=["square2", "square4", "diamond3"])
def test_merge_level_applies_several_accepts_per_chunk(w0, psi):
    """On a 48x48 lattice most merge boxes are far apart, so a chunk
    applies several accepts with few re-tests, unlike on the small grids
    of the Hypothesis test, where most merge boxes cover the lattice."""
    rng = np.random.default_rng(48)
    labels = rng.integers(0, 4, size=(48, 48)).astype(np.int32)
    verdict = rng.random((48, 48)) < 0.6
    perm = permutation("random", Lattice(48, 48), 7)
    _check_merge_level(labels, verdict, perm, w0, psi)


@pytest.mark.parametrize("w0", [NINE_NEIGHBORHOOD, FIVE_NEIGHBORHOOD], ids=["8n", "4n"])
@pytest.mark.parametrize("psi", [square_window(2), _diamond(3), square_window(48)],
                         ids=["square2", "diamond3", "covering"])
def test_merge_level_grows_chunks_where_accepts_are_rare(w0, psi):
    """At accept rate 0.02 on a 48x48 lattice, chunks grow past
    ``MERGE_CHUNK``: 18 of the 50 rounds gather more than 32 visits.
    Nearly every pixel starts with its own label, so every merge leaves
    boundaries behind. A psi that covers the lattice stales every visit
    after a chunk's first accept, and 97 (8n) and 17 (4n) of those
    re-checks find changed reads and re-test the visit in place."""
    rng = np.random.default_rng(49)
    labels = rng.integers(0, 2 * 48 * 48, size=(48, 48)).astype(np.int32)
    verdict = rng.random((48, 48)) < 0.02
    perm = permutation("random", Lattice(48, 48), 8)
    _check_merge_level(labels, verdict, perm, w0, psi)


@pytest.mark.parametrize("w0, psi", [(FIVE_NEIGHBORHOOD, _diamond(4)),
                                     (FIVE_NEIGHBORHOOD, _diamond(6)),
                                     (NINE_NEIGHBORHOOD, _diamond(6))],
                         ids=["4n-diamond4", "4n-diamond6", "8n-diamond6"])
def test_merge_level_goes_on_past_stale_visits_that_keep_their_reads(w0, psi):
    """On a 48x48 lattice of 12x12 uniform blocks at accept rate 0.2, a
    merge takes only the few labels around its visit, inside a diamond
    whose bounding box also covers pixels of other labels. So many visits
    in reach of an earlier merge's box read nothing it changed, and their
    test stands: 110, 178 and 180 such checks against 77, 112 and 196
    that found a change and re-tested the visit."""
    rng = np.random.default_rng(2)
    rows, cols = np.mgrid[:48, :48]
    labels = ((rows // 12) * 4 + cols // 12).astype(np.int32)
    verdict = rng.random((48, 48)) < 0.2
    perm = permutation("random", Lattice(48, 48), 2)
    _check_merge_level(labels, verdict, perm, w0, psi)


@pytest.mark.parametrize("w0", [NINE_NEIGHBORHOOD, FIVE_NEIGHBORHOOD], ids=["8n", "4n"])
@pytest.mark.parametrize("psi", [square_window(2), None], ids=["square2", "pinned"])
def test_merge_level_in_raster_order_with_dense_verdicts(w0, psi):
    """In raster order the next visit lies in every accept's merge box
    (but at a row's end), so at accept rate 0.9 nearly every accept
    stales the visit after it: 2173 to 2176 of the 2304 visits re-read
    changed labels and are re-tested in place."""
    rng = np.random.default_rng(50)
    labels = rng.integers(0, 4, size=(48, 48)).astype(np.int32)
    verdict = rng.random((48, 48)) < 0.9
    perm = permutation("raster", Lattice(48, 48))
    _check_merge_level(labels, verdict, perm, w0, w0 if psi is None else psi)


# One-row lattices of at most MERGE_CHUNK pixels, so every visit is in the
# first chunk and is gathered from the starting labels. With the 3x3 w0
# and square(2) merges, visit 1 merges pixels 0..3 first, then the visit
# ``at`` reads changed labels and is re-tested; ``outcome`` is its
# (boundary in the chunk, boundary at its turn, verdict).
_RETESTS = {
    # [2, 2, 2, 2, 1, ...]: visit 4 newly accepts and merges 2..6 into 3.
    # Visit 7 is outside visit 1's merge box dilated by w0, so only visit
    # 4's re-tested merge can stale it; it then newly accepts as well.
    "newly-accepts": ([0, 1, 1, 1, 1, 1, 1, 1], [1, 4, 7], 4, (False, True, True)),
    "newly-accepts-after-retest": ([0, 1, 1, 1, 1, 1, 1, 1], [1, 4, 7], 7,
                                   (False, True, True)),
    # [8, 8, 8, 3, 4, ...]: visit 3 reads {8, 3, 4}, not {2, 3, 4}, so its
    # merge takes pixels 1..4, where the old targets would take 3..4.
    "accept-new-targets": ([0, 1, 2, 3, 4, 5, 6, 7], [1, 3], 3, (True, True, True)),
    # [8, 8, 8, 8, 2, ...]: visit 2 now reads one label and drops its merge.
    "accept-off-boundary": ([0, 1, 2, 2, 2, 5, 6, 7], [1, 2], 2, (True, False, True)),
    "non-hit-onto-boundary": ([0, 1, 1, 1, 1, 1, 1, 1], [1, 4, 7], 4, (False, True, False)),
    "non-hit-off-boundary": ([0, 1, 2, 2, 2, 5, 6, 7], [1, 2], 2, (True, False, False)),
}


@pytest.mark.parametrize("case", _RETESTS.values(), ids=_RETESTS.keys())
def test_merge_level_retests_a_changed_visit_in_place(case):
    """Each outcome of a re-test: the crafted visit's reads at its turn
    in the one-visit loop differ from the chunk's gather, its boundary
    test and verdict are as named, and the labels and counts match that
    loop."""
    row, head, at, outcome = case
    labels = np.array([row], dtype=np.int32)
    perm = np.array(head + [p for p in range(len(row)) if p not in head])
    verdict = np.ones_like(labels, dtype=bool)
    verdict[0, at] = outcome[2]
    assert labels.size <= driver.MERGE_CHUNK
    w0, psi = NINE_NEIGHBORHOOD, square_window(2)
    chunk, now = _reads_at_turn(labels, verdict, perm, at, w0, psi)
    assert chunk != now
    assert (len(set(chunk)) > 1, len(set(now)) > 1, verdict[0, at]) == outcome
    _check_merge_level(labels, verdict, perm, w0, psi)


def test_merge_level_keeps_a_stale_visits_test_after_a_dropped_merge():
    """[0, 1, 2, 2, 2, 5, 6, 7] visited 1, 2, 5 first, every verdict set:
    visit 1 merges pixels 0..3 into 8, so visit 2 reads {8} and its
    planned merge is dropped. Visit 5 lies outside visit 1's near box
    (its merge box dilated by w0, pixels 0..4) but inside visit 2's, so
    only the dropped merge stales it; its reads {2, 5, 6} stand, and it
    merges on the chunk's gather."""
    row, head = [0, 1, 2, 2, 2, 5, 6, 7], [1, 2, 5]
    labels = np.array([row], dtype=np.int32)
    perm = np.array(head + [p for p in range(len(row)) if p not in head])
    verdict = np.ones_like(labels, dtype=bool)
    w0, psi = NINE_NEIGHBORHOOD, square_window(2)
    chunk, now = _reads_at_turn(labels, verdict, perm, 2, w0, psi)
    assert (set(chunk), set(now)) == ({1, 2}, {8})
    chunk, now = _reads_at_turn(labels, verdict, perm, 5, w0, psi)
    assert chunk == now and set(now) == {2, 5, 6}
    _check_merge_level(labels, verdict, perm, w0, psi)


def _reads_at_turn(labels, verdict, perm, at, w0, psi):
    """Pixel ``at``'s w0 reads on the one-row ``labels``, and on the
    labels the one-visit loop has left when its turn comes."""
    turn = perm.tolist().index(at)
    before = merge_level_reference(labels, verdict, _pixel_pairs(perm[:turn], labels.shape[1]),
                                   w0.offsets, psi.offsets)[0]
    reads = _w0_reads(w0, *labels.shape)[at]
    return labels[0, reads].tolist(), before[0, reads].tolist()


@pytest.mark.parametrize("layout", ["fortran", "transposed"])
def test_merge_level_takes_any_label_layout(layout):
    """``_merge_level`` works on a C-ordered copy and writes it back, so
    a Fortran-ordered array or a transposed view merges like a C one."""
    rng = np.random.default_rng(5)
    base = rng.integers(0, 3, size=(9, 7)).astype(np.int32)
    labels = np.asfortranarray(base) if layout == "fortran" else base.T.copy().T
    assert not labels.flags.c_contiguous
    verdict = rng.random((9, 7)) < 0.6
    perm = permutation("random", Lattice(7, 9), 3)
    _check_merge_level(labels, verdict, perm, NINE_NEIGHBORHOOD, square_window(2))
