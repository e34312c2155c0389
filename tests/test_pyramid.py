import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcvseg import pyramid
from mcvseg.geometry import (FIVE_NEIGHBORHOOD, NINE_NEIGHBORHOOD, Window,
                             WindowGeom, dilate, square_window)
from mcvseg.mrf import MrfModel, energy, evaluate
from mcvseg.pyramid import (PyramidEvaluator, WindowImage, downsample,
                            make_pyramid_evaluator, pyramid_evaluate,
                            verdict_map)

from oracles import downsample_reference


def full_image(window, values):
    return WindowImage(window, np.asarray(values, dtype=np.float64))


def test_window_image_validates_shape():
    with pytest.raises(ValueError):
        WindowImage(square_window(1), np.zeros((2, 3)))
    img = WindowImage(square_window(1), np.zeros((3, 3)))
    assert img.bands == 1
    assert img.mask.all()


def test_window_image_mask_clipped_to_window():
    win = Window(((0, 0), (1, 0), (0, 1)))  # L-shape in a 2x2 box
    img = WindowImage(win, np.zeros((2, 2)), np.ones((2, 2), dtype=bool))
    assert img.mask.sum() == 3


def test_downsample_constant_stays_constant():
    src = full_image(square_window(2), np.full((5, 5), 6.5))
    out = downsample(src, square_window(1), NINE_NEIGHBORHOOD)
    assert out.mask.all()
    assert np.all(out.values == 6.5)


def test_downsample_impulse_center():
    vals = np.zeros((5, 5))
    vals[2, 2] = 1.0
    src = full_image(square_window(2), vals)
    out = downsample(src, square_window(1), NINE_NEIGHBORHOOD)
    assert out.values[1, 1, 0] == pytest.approx(1.0 / 9.0, rel=1e-15)


def test_downsample_linearity():
    rng = np.random.default_rng(0)
    a = rng.random((5, 5))
    b = rng.random((5, 5))
    w2, w1 = square_window(2), square_window(1)
    lhs = downsample(full_image(w2, 3.0 * a + b), w1, NINE_NEIGHBORHOOD).values
    rhs = (3.0 * downsample(full_image(w2, a), w1, NINE_NEIGHBORHOOD).values
           + downsample(full_image(w2, b), w1, NINE_NEIGHBORHOOD).values)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_downsample_never_extends_range():
    rng = np.random.default_rng(1)
    for _ in range(10):
        vals = rng.random((7, 7)) * 50
        src = full_image(square_window(3), vals)
        out = downsample(src, square_window(2), NINE_NEIGHBORHOOD)
        assert out.values[out.mask].min() >= vals.min() - 1e-12
        assert out.values[out.mask].max() <= vals.max() + 1e-12


def test_downsample_renormalizes_over_holes():
    # only the center sample exists; every output that can see it takes
    # exactly its value
    vals = np.zeros((5, 5))
    vals[2, 2] = 8.0
    mask = np.zeros((5, 5), dtype=bool)
    mask[2, 2] = True
    src = WindowImage(square_window(2), vals, mask)
    out = downsample(src, square_window(1), NINE_NEIGHBORHOOD)
    assert out.mask.all()
    assert np.all(out.values == 8.0)


def test_downsample_marks_unreachable_positions_absent():
    vals = np.zeros((5, 5))
    mask = np.zeros((5, 5), dtype=bool)
    mask[0, 0] = True
    src = WindowImage(square_window(2), vals, mask)
    out = downsample(src, square_window(1), NINE_NEIGHBORHOOD)
    # only the output corner adjacent to the lone sample is defined
    assert out.mask[0, 0]
    assert not out.mask[2, 2]


def grid_samples(img):
    """The sampled positions of a window image as {(dx, dy): band tuple}."""
    x0, _, y0, _ = img.window.bbox()
    return {(int(c) + x0, int(r) + y0): tuple(float(v) for v in img.values[r, c])
            for r, c in np.argwhere(img.mask)}


neighborhoods = st.sampled_from((FIVE_NEIGHBORHOOD, NINE_NEIGHBORHOOD))
# Dilations have square boxes, so the rectangles are what tell a row
# shift from a column shift.
layer_windows = st.one_of(
    st.builds(dilate, neighborhoods, st.integers(1, 3)),
    st.tuples(st.integers(-3, 0), st.integers(0, 3), st.integers(-3, 0),
              st.integers(0, 3)).map(lambda b: Window(tuple(
                  (dx, dy) for dx in range(b[0], b[1] + 1)
                  for dy in range(b[2], b[3] + 1)))),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_downsample_matches_reference(data):
    src_win = data.draw(layer_windows, label="src window")
    out_win = data.draw(layer_windows, label="out window")
    g = data.draw(neighborhoods, label="g")
    bands = data.draw(st.integers(1, 3), label="bands")
    h, w = src_win.mask().shape
    sampled = data.draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    samples = data.draw(st.lists(st.floats(0.0, 255.0), min_size=h * w * bands,
                                 max_size=h * w * bands))
    src = WindowImage(src_win, np.reshape(samples, (h, w, bands)),
                      np.reshape(sampled, (h, w)))
    want = downsample_reference(grid_samples(src), out_win.offsets, g.offsets)
    assert grid_samples(downsample(src, out_win, g)) == want


def test_make_pyramid_evaluator_levels():
    pe = make_pyramid_evaluator(MrfModel(), 3)
    assert list(pe.levels) == [square_window(3), square_window(2),
                               square_window(1)]
    with pytest.raises(ValueError):
        make_pyramid_evaluator(MrfModel(), 0)


def test_pyramid_evaluate_level_one_is_evaluate():
    rng = np.random.default_rng(2)
    model = MrfModel(rho=5.0)
    pe = make_pyramid_evaluator(model, 3)
    for _ in range(20):
        vals = rng.random((3, 3)) * 30
        img = full_image(square_window(1), vals)
        assert pyramid_evaluate(img, pe) == evaluate(vals, model)


def test_pyramid_evaluate_equals_composition():
    rng = np.random.default_rng(3)
    model = MrfModel(rho=2.0)
    pe = make_pyramid_evaluator(model, 3)
    for level in (2, 3):
        win = square_window(level)
        for _ in range(20):
            side = 2 * level + 1
            vals = rng.random((side, side)) * 20
            img = full_image(win, vals)
            cur = img
            for i in range(level - 1, 0, -1):
                cur = downsample(cur, square_window(i), model.neighborhood)
            expected = evaluate(cur.values, model, cur.mask)
            assert pyramid_evaluate(img, pe) == expected


def test_pyramid_evaluate_constant_accepted():
    model = MrfModel(rho=0.0)
    pe = make_pyramid_evaluator(model, 3)
    for level in (1, 2, 3):
        img = full_image(square_window(level),
                         np.full((2 * level + 1, 2 * level + 1), 4.0))
        assert pyramid_evaluate(img, pe) == 1


def test_pyramid_evaluate_level_mismatch():
    pe = make_pyramid_evaluator(MrfModel(), 2)
    img = full_image(square_window(4), np.zeros((9, 9)))
    with pytest.raises(ValueError):
        pyramid_evaluate(img, pe)


def test_evaluator_rejects_non_nested_levels():
    with pytest.raises(ValueError):
        PyramidEvaluator(MrfModel(), (square_window(1), square_window(2)))
    with pytest.raises(ValueError):
        PyramidEvaluator(MrfModel(), ())


def pixel_window(samples, top, r0, c0):
    """Pixel (r0, c0)'s window cut out of an (h, w, bands) image, as the
    clipped patch with its window mask and as the window image on the
    window's bounding box, whose slots off the lattice carry no sample."""
    h, w, bands = samples.shape
    geom = WindowGeom.of(top)
    rs, cs, sub = geom.clip(r0, c0, h, w)
    box = (geom.by1 - geom.by0 + 1, geom.bx1 - geom.bx0 + 1)
    brs, bcs, _ = WindowGeom(0, w - 1, 0, h - 1, None).clip(
        -r0 - geom.by0, -c0 - geom.bx0, *box)
    vals = np.zeros(box + (bands,))
    msk = np.zeros(box, dtype=bool)
    vals[brs, bcs] = samples[rs, cs]
    msk[brs, bcs] = True
    return samples[rs, cs], sub, WindowImage(top, vals, msk)


def per_pixel_verdicts(samples, levels, model):
    """One evaluator call per pixel: ``evaluate`` on the clipped window
    when there is no aggregation step, ``pyramid_evaluate`` on the
    window image otherwise."""
    h, w, _ = samples.shape
    pe = PyramidEvaluator(model, levels)
    out = np.zeros((h, w), dtype=bool)
    for r0 in range(h):
        for c0 in range(w):
            patch, sub, img = pixel_window(samples, levels[0], r0, c0)
            out[r0, c0] = (evaluate(patch, model, sub) if len(levels) == 1
                           else pyramid_evaluate(img, pe))
    return out


def per_pixel_energy(samples, levels, model, r0, c0):
    """Energy per scored pixel of pixel (r0, c0)'s window, computed the
    way the reference computes it before comparing with rho."""
    cur = pixel_window(samples, levels[0], r0, c0)[2]
    for win in levels[1:]:
        cur = downsample(cur, win, model.neighborhood)
    return energy(cur.values, model, cur.mask) / np.count_nonzero(cur.mask)


# Windows a level may evaluate on without aggregation: dilations of the
# base neighborhood, or any offset set (holes, asymmetric boxes).
direct_windows = st.sets(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                         max_size=12).map(lambda offs: Window(tuple(offs | {(0, 0)})))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_verdict_map_matches_per_pixel_reference(data):
    g = data.draw(neighborhoods, label="g")
    radii = sorted(data.draw(st.sets(st.integers(1, 3), min_size=1), label="radii"),
                   reverse=True)
    levels = tuple(dilate(g, i) for i in radii)
    if len(levels) == 1 and data.draw(st.booleans(), label="any window"):
        levels = (data.draw(direct_windows, label="window"),)
    h = data.draw(st.integers(1, 12), label="h")
    w = data.draw(st.integers(1, 12), label="w")
    bands = data.draw(st.integers(1, 3), label="bands")
    values = st.integers(0, 255) | st.floats(0.0, 255.0)
    samples = np.reshape(data.draw(st.lists(values, min_size=h * w * bands,
                                            max_size=h * w * bands)),
                         (h, w, bands)).astype(np.float64)
    metric = data.draw(st.sampled_from(("euclidean", "per_band_abs")), label="metric")
    # rho is one pixel's exact reference energy, so at least one window
    # sits exactly on the threshold.
    r0 = data.draw(st.integers(0, h - 1), label="tie row")
    c0 = data.draw(st.integers(0, w - 1), label="tie col")
    rho = per_pixel_energy(samples, levels, MrfModel(g, metric=metric), r0, c0)
    model = MrfModel(g, metric=metric, rho=rho)
    got = verdict_map(samples, levels, model)
    assert got.dtype == bool and got.shape == (h, w)
    assert np.array_equal(got, per_pixel_verdicts(samples, levels, model))
    assert got[r0, c0]


# Samples per chunk for 5x5 gray windows on a 7x10 image: one window,
# four windows (the last chunk is short), the whole image.
@pytest.mark.parametrize("chunk", [1, 4 * 25, 70 * 25])
def test_verdict_map_chunks_agree(chunk, monkeypatch):
    """Chunk boundaries change nothing, and an (h, w) gray image scores
    like its one-band form."""
    rng = np.random.default_rng(9)
    samples = np.repeat([[40.0, 160.0]], 7, axis=0).repeat(5, axis=1)
    samples = samples + rng.normal(0, 2, size=samples.shape)
    model = MrfModel(rho=50.0)
    levels = (square_window(2), square_window(1))
    want = per_pixel_verdicts(samples[:, :, None], levels, model)
    assert 0 < want.sum() < want.size
    monkeypatch.setattr(pyramid, "CHUNK_SAMPLES", chunk)
    assert np.array_equal(verdict_map(samples, levels, model), want)


def test_verdict_map_rechecks_only_near_ties(monkeypatch):
    """A zero energy is exact in any summation order, so a constant image
    at rho = 0 needs no per-window recheck; an exact tie does."""
    calls = []
    monkeypatch.setattr(pyramid, "evaluate",
                        lambda vals, model, mask: calls.append(mask) or evaluate(vals, model, mask))
    levels = (square_window(2), square_window(1))
    assert verdict_map(np.full((5, 6), 7.0), levels, MrfModel(rho=0.0)).all()
    assert calls == []
    samples = np.arange(30.0).reshape(5, 6) % 4
    rho = per_pixel_energy(samples[:, :, None], levels, MrfModel(), 2, 3)
    assert verdict_map(samples, levels, MrfModel(rho=rho))[2, 3]
    assert len(calls) >= 1
