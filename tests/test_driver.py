import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcvseg.driver import (ConfigError, McvConfig, config_updates,
                           load_permutation, permutation, run_level, run_mcv)
from mcvseg.geometry import (FIVE_NEIGHBORHOOD, Lattice, NINE_NEIGHBORHOOD,
                             WindowGeom, dilate, square_window)
from mcvseg.partition import same_partition, singletons_full
from mcvseg.pnmio import ImageBuffer

from oracles import energy_reference, run_mcv_reference, window_at


def gray(values, max_value=255):
    arr = np.asarray(values, dtype=np.float64)
    lat = Lattice(arr.shape[1], arr.shape[0])
    return ImageBuffer(lat, 1, arr[:, :, None], max_value)


def test_permutation_raster_two_by_two():
    lat = Lattice(2, 2)
    assert permutation("raster", lat).tolist() == [[1, 1], [2, 1], [1, 2], [2, 2]]


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
    assert sorted(map(tuple, out.tolist())) == sorted(lat.pixels())


def test_permutation_rejects_unknown_kind():
    with pytest.raises(ValueError):
        permutation("zigzag", Lattice(2, 2))


def test_load_permutation_good():
    lat = Lattice(2, 2)
    text = "# visiting order\n3\n2\n1\n0\n"
    out = load_permutation(text, lat)
    assert out.tolist() == [[2, 2], [1, 2], [2, 1], [1, 1]]


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
    for field, value in (("max_level", 1.5), ("seed", 1.5), ("neighborhood", 8.0),
                         ("workers", 2.5), ("max_level", "2")):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            McvConfig(**{field: value}).validate()
    McvConfig(max_level=np.int64(2), seed=np.uint8(3), workers=np.int32(2)).validate()
    with pytest.raises(ConfigError):
        McvConfig(max_level=2, eval_windows=(NINE_NEIGHBORHOOD,)).validate()
    with pytest.raises(ConfigError):
        McvConfig(max_level=2, merge_windows=(square_window(2),
                                              square_window(1))).validate()


def test_config_window_defaults():
    cfg = McvConfig(max_level=3)
    assert cfg.w0 == NINE_NEIGHBORHOOD
    assert cfg.eval_window(2) == dilate(NINE_NEIGHBORHOOD, 2)
    assert cfg.merge_window(1) == square_window(2)
    assert cfg.merge_window(3) == square_window(8)
    assert McvConfig(neighborhood=4).w0 == FIVE_NEIGHBORHOOD
    with pytest.raises(ValueError):
        cfg.eval_window(4)


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


def test_run_level_validates_inputs():
    img = gray(np.zeros((3, 3)))
    cfg = McvConfig(max_level=1)
    p = singletons_full(img.lattice)
    perm = permutation("raster", img.lattice)
    with pytest.raises(ValueError):
        run_level(p, img, 2, cfg, perm)
    with pytest.raises(ValueError):
        run_level(p, img, 1, cfg, perm[:-1])
    with pytest.raises(ValueError):
        run_level(singletons_full(Lattice(2, 2)), img, 1, cfg, perm)


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
    assert WindowGeom.square(2 ** 30).clip(0, 2, 1, 6) == (slice(0, 1), slice(0, 6), None)


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


def test_run_mcv_reshuffle_flag():
    img = gray(np.full((8, 8), 5.0))
    cfg = McvConfig(max_level=2, rho=1.0, reshuffle_per_level=True, seed=6)
    seq1 = run_mcv(img, cfg)
    seq2 = run_mcv(img, cfg)
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
    """Direct-mode ``run_mcv`` against the literal set-arithmetic loop:
    same partitions and same LevelStats counts at every level."""
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
    if data.draw(st.booleans(), label="pin eval windows"):
        cfg = replace(cfg, eval_windows=(cfg.w0,) * cfg.max_level)
    lat = Lattice(width, height)
    levels = range(1, cfg.max_level + 1)
    if order == "reshuffle":
        perms = [permutation("random", lat, [cfg.seed, i]) for i in levels]
    else:
        perms = [permutation(cfg.permutation, lat, cfg.seed)] * cfg.max_level
    values = {(c + 1, r + 1): (float(samples[r, c, 0]) if bands == 1
                               else tuple(float(v) for v in samples[r, c]))
              for r in range(height) for c in range(width)}
    w0 = cfg.w0.offsets
    metric = cfg.model().metric
    # energy_reference adds in its own order: keep rho clear of every
    # window's energy per pixel by more than that order can move it.
    for i in levels:
        for x in values:
            window = window_at(x, cfg.eval_window(i).offsets, width, height)
            q = energy_reference(values, window, w0, metric) / len(window)
            assume(abs(q - cfg.rho) > 1e-9 * max(1.0, q, cfg.rho))

    want = run_mcv_reference(values, width, height,
                             [[tuple(int(v) for v in p) for p in perm] for perm in perms],
                             w0, [cfg.eval_window(i).offsets for i in levels],
                             [cfg.merge_window(i).offsets for i in levels],
                             cfg.rho, metric)
    got = run_mcv(ImageBuffer(lat, bands, samples, 255), cfg)
    for part, st_, (blocks, evaluations, accepted) in zip(got.levels, got.stats, want):
        labels = part.labels
        got_blocks = {frozenset((int(c) + 1, int(r) + 1) for r, c in np.argwhere(labels == k))
                      for k in np.unique(labels)}
        assert got_blocks == blocks
        assert (st_.evaluations, st_.accepted, st_.region_count) == (
            evaluations, accepted, len(blocks))
