from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcvseg.driver import ConfigError, McvConfig
from mcvseg.geometry import (FIVE_NEIGHBORHOOD, NINE_NEIGHBORHOOD, Window,
                             WindowGeom, dilate, square_window)
from mcvseg.pyramid import MrfModel, check_chain, make_pyramid_evaluator, verdict_map
from mcvseg.reference import downsample, energy, evaluate, pyramid_evaluate

from oracles import downsample_reference

ORIGIN = Window(((0, 0),))


def full_image(window, values):
    """Gray ``values`` over the window's bounding box with every window
    position sampled, as the (values, mask) pair a layer takes."""
    return np.asarray(values, dtype=np.float64)[:, :, None], window.mask()


def test_downsample_validates_shape():
    win = square_window(1)
    with pytest.raises(ValueError):
        downsample(np.zeros((2, 3, 1)), np.ones((2, 3), dtype=bool), win, win, ORIGIN)
    with pytest.raises(ValueError):
        downsample(np.zeros((3, 3, 1)), np.ones((2, 3), dtype=bool), win, win, ORIGIN)
    with pytest.raises(ValueError):  # no band axis
        downsample(np.zeros((3, 3)), np.ones((3, 3), dtype=bool), win, win, ORIGIN)
    # The origin-only layer copies its input: one band, every position.
    values, mask = downsample(*full_image(win, np.zeros((3, 3))), win, win, ORIGIN)
    assert values.shape == (3, 3, 1)
    assert mask.all()


def test_downsample_ignores_mask_outside_window():
    win = Window(((0, 0), (1, 0), (0, 1)))  # L-shape in a 2x2 box
    vals = np.zeros((2, 2, 1))
    vals[1, 1, 0] = 100.0  # the one box position off the window
    everywhere = np.ones((2, 2), dtype=bool)
    _, mask = downsample(vals, everywhere, win, win, ORIGIN)
    assert mask.sum() == 3
    values, _ = downsample(vals, everywhere, win, ORIGIN, NINE_NEIGHBORHOOD)
    assert values[0, 0, 0] == 0.0


def test_downsample_keeps_batch_axes():
    rng = np.random.default_rng(4)
    w2, w1 = square_window(2), square_window(1)
    vals = rng.random((3, 2, 5, 5, 2))
    mask = rng.random((3, 2, 5, 5)) < 0.7
    values, present = downsample(vals, mask, w2, w1, NINE_NEIGHBORHOOD)
    assert values.shape == (3, 2, 3, 3, 2) and present.shape == (3, 2, 3, 3)
    one = downsample(vals[1, 0], mask[1, 0], w2, w1, NINE_NEIGHBORHOOD)
    assert np.array_equal(values[1, 0], one[0])
    assert np.array_equal(present[1, 0], one[1])


def test_downsample_constant_stays_constant():
    values, mask = downsample(*full_image(square_window(2), np.full((5, 5), 6.5)),
                              square_window(2), square_window(1), NINE_NEIGHBORHOOD)
    assert mask.all()
    assert np.all(values == 6.5)


def test_downsample_impulse_center():
    vals = np.zeros((5, 5))
    vals[2, 2] = 1.0
    values, _ = downsample(*full_image(square_window(2), vals), square_window(2),
                           square_window(1), NINE_NEIGHBORHOOD)
    assert values[1, 1, 0] == pytest.approx(1.0 / 9.0, rel=1e-15)


def test_downsample_linearity():
    rng = np.random.default_rng(0)
    a = rng.random((5, 5))
    b = rng.random((5, 5))
    w2, w1 = square_window(2), square_window(1)

    def down(vals):
        return downsample(*full_image(w2, vals), w2, w1, NINE_NEIGHBORHOOD)[0]

    lhs = down(3.0 * a + b)
    rhs = 3.0 * down(a) + down(b)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_downsample_never_extends_range():
    rng = np.random.default_rng(1)
    for _ in range(10):
        vals = rng.random((7, 7)) * 50
        values, mask = downsample(*full_image(square_window(3), vals), square_window(3),
                                  square_window(2), NINE_NEIGHBORHOOD)
        assert values[mask].min() >= vals.min() - 1e-12
        assert values[mask].max() <= vals.max() + 1e-12


def test_downsample_renormalizes_over_holes():
    # only the center sample exists; every output that can see it takes
    # exactly its value
    vals = np.zeros((5, 5, 1))
    vals[2, 2] = 8.0
    mask = np.zeros((5, 5), dtype=bool)
    mask[2, 2] = True
    values, present = downsample(vals, mask, square_window(2), square_window(1),
                                 NINE_NEIGHBORHOOD)
    assert present.all()
    assert np.all(values == 8.0)


def test_downsample_marks_unreachable_positions_absent():
    vals = np.zeros((5, 5, 1))
    mask = np.zeros((5, 5), dtype=bool)
    mask[0, 0] = True
    _, present = downsample(vals, mask, square_window(2), square_window(1),
                            NINE_NEIGHBORHOOD)
    # only the output corner adjacent to the lone sample is defined
    assert present[0, 0]
    assert not present[2, 2]


def grid_samples(window, values, mask):
    """The sampled positions of a window's arrays as {(dx, dy): band tuple}."""
    x0, _, y0, _ = window.bbox()
    return {(int(c) + x0, int(r) + y0): tuple(float(v) for v in values[r, c])
            for r, c in np.argwhere(mask & window.mask())}


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
    vals = np.reshape(samples, (h, w, bands))
    mask = np.reshape(sampled, (h, w))
    want = downsample_reference(grid_samples(src_win, vals, mask), out_win.offsets,
                                g.offsets)
    assert grid_samples(out_win, *downsample(vals, mask, src_win, out_win, g)) == want


def test_make_pyramid_evaluator_levels():
    levels = make_pyramid_evaluator(MrfModel(), 3)
    assert levels == (square_window(3), square_window(2), square_window(1))
    with pytest.raises(ValueError):
        make_pyramid_evaluator(MrfModel(), 0)


def test_pyramid_evaluate_level_one_is_evaluate():
    rng = np.random.default_rng(2)
    model = MrfModel(rho=5.0)
    levels = make_pyramid_evaluator(model, 3)
    for _ in range(20):
        vals = rng.random((3, 3)) * 30
        assert pyramid_evaluate(vals, levels[2:], model) == evaluate(vals, model)


def test_pyramid_evaluate_equals_composition():
    rng = np.random.default_rng(3)
    model = MrfModel(rho=2.0)
    levels = make_pyramid_evaluator(model, 3)
    for level in (2, 3):
        win = square_window(level)
        for _ in range(20):
            side = 2 * level + 1
            vals = rng.random((side, side)) * 20
            cur, mask = full_image(win, vals)
            for i in range(level - 1, 0, -1):
                cur, mask = downsample(cur, mask, square_window(i + 1), square_window(i),
                                       model.neighborhood)
            expected = evaluate(cur, model, mask)
            assert pyramid_evaluate(vals, levels[3 - level:], model) == expected


def test_pyramid_evaluate_constant_accepted():
    model = MrfModel(rho=0.0)
    levels = make_pyramid_evaluator(model, 3)
    for level in (1, 2, 3):
        vals = np.full((2 * level + 1, 2 * level + 1), 4.0)
        assert pyramid_evaluate(vals, levels[3 - level:], model) == 1


def test_pyramid_evaluate_level_mismatch():
    levels = make_pyramid_evaluator(MrfModel(), 2)
    with pytest.raises(ValueError):
        pyramid_evaluate(np.zeros((9, 9)), levels, MrfModel())
    with pytest.raises(ValueError):
        pyramid_evaluate(np.zeros((5, 5)), levels, MrfModel(), np.ones((3, 3), dtype=bool))


@pytest.mark.parametrize("chain", [(), (square_window(1), square_window(1)),
                                   (square_window(1), square_window(2))],
                         ids=["empty", "equal", "growing"])
def test_bad_chains_rejected_everywhere(chain):
    """A chain must hold a window and shrink strictly coarse-ward; every
    entry point that takes one says so, and in pyramid mode the config's
    eval windows (listed fine-ward) are such a chain."""
    model = MrfModel()
    match = "strictly" if chain else "at least one"
    with pytest.raises(ValueError, match=match):
        check_chain(chain)
    with pytest.raises(ValueError, match=match):
        pyramid_evaluate(np.zeros((3, 3)), chain, model)
    with pytest.raises(ValueError, match=match):
        verdict_map(np.zeros((4, 4)), chain, model)
    cfg = McvConfig(max_level=max(1, len(chain)), eval_mode="pyramid",
                    eval_windows=chain[::-1])
    with pytest.raises(ConfigError):
        cfg.validate()


@pytest.mark.parametrize("call", [
    energy,
    evaluate,
    lambda v, m: pyramid_evaluate(v, (NINE_NEIGHBORHOOD,), m),
    lambda v, m: verdict_map(v, (NINE_NEIGHBORHOOD,), m),
], ids=["energy", "evaluate", "pyramid_evaluate", "verdict_map"])
def test_zero_band_arrays_rejected(call):
    """An image without bands has no energy; no entry point calls it
    homogeneous."""
    with pytest.raises(ValueError, match="no bands"):
        call(np.zeros((3, 3, 0)), MrfModel())


def pixel_window(samples, top, r0, c0):
    """Pixel (r0, c0)'s window cut out of an (h, w, bands) image, as the
    clipped patch with its window mask and as the (values, mask) arrays
    on the window's bounding box, whose slots off the lattice carry no
    sample."""
    h, w, bands = samples.shape
    geom = WindowGeom.of(top)
    row_cuts, col_cuts = geom.cuts(h, w)
    (rs, rm), (cs, cm) = row_cuts[r0], col_cuts[c0]
    sub = None if geom.mask is None else geom.mask[rm, cm]
    box = (geom.by1 - geom.by0 + 1, geom.bx1 - geom.bx0 + 1)
    dr, dc = -r0 - geom.by0, -c0 - geom.bx0  # image (r, c) sits at box (r + dr, c + dc)
    brs, bcs = slice(rs.start + dr, rs.stop + dr), slice(cs.start + dc, cs.stop + dc)
    vals = np.zeros(box + (bands,))
    msk = np.zeros(box, dtype=bool)
    vals[brs, bcs] = samples[rs, cs]
    msk[brs, bcs] = True
    return samples[rs, cs], sub, (vals, msk)


def per_pixel_verdicts(samples, levels, model):
    """One evaluator call per pixel: ``evaluate`` on the clipped window
    when there is no aggregation step, ``pyramid_evaluate`` on the
    window's box arrays otherwise."""
    h, w, _ = samples.shape
    out = np.zeros((h, w), dtype=bool)
    for r0 in range(h):
        for c0 in range(w):
            patch, sub, (vals, msk) = pixel_window(samples, levels[0], r0, c0)
            out[r0, c0] = (evaluate(patch, model, sub) if len(levels) == 1
                           else pyramid_evaluate(vals, levels, model, msk))
    return out


def per_pixel_energy(samples, levels, model, r0, c0):
    """Energy per scored pixel of pixel (r0, c0)'s window, computed the
    way the reference computes it before comparing with rho."""
    vals, msk = pixel_window(samples, levels[0], r0, c0)[2]
    msk = msk & levels[0].mask()
    for src, dst in zip(levels, levels[1:]):
        vals, msk = downsample(vals, msk, src, dst, model.neighborhood)
    return energy(vals, model, msk) / np.count_nonzero(msk)


# Windows a level may evaluate on without aggregation: dilations of the
# base neighborhood, or any offset set (holes, asymmetric boxes).
direct_windows = st.sets(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                         max_size=12).map(lambda offs: Window(tuple(offs | {(0, 0)})))


# Squares of radius 1-3 with holes: dense windows, so that a coarser
# layer of a chain cut from one has many positions that read alike.
holed_squares = st.integers(1, 3).map(square_window).flatmap(
    lambda sq: st.sets(st.sampled_from([o for o in sq.offsets if o != (0, 0)])).map(
        lambda holes: Window(tuple(set(sq.offsets) - holes))))


def nested_chain(data):
    """A custom chain of up to three windows: a ``holed_squares`` window,
    then the window before with some offsets dropped, while any are left
    to drop. Such chains may break the containment ``dst + g <= src`` of
    the dilation chains, so positions of the coarsest layer can read
    different maps at the same offsets."""
    levels = (data.draw(holed_squares, label="window"),)
    while len(levels) < 3 and len(levels[-1]) > 1:
        inner = sorted(set(levels[-1].offsets) - {(0, 0)})
        dropped = data.draw(st.sets(st.sampled_from(inner), min_size=1), label="dropped")
        levels += (Window(tuple(set(levels[-1].offsets) - dropped)),)
    return levels


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_verdict_map_matches_per_pixel_reference(data):
    g = data.draw(neighborhoods, label="g")
    kind = data.draw(st.sampled_from(("dilations", "window", "chain")), label="kind")
    if kind == "dilations":
        radii = sorted(data.draw(st.sets(st.integers(1, 3), min_size=1), label="radii"),
                       reverse=True)
        levels = tuple(dilate(g, i) for i in radii)
    elif kind == "window":
        levels = (data.draw(direct_windows | holed_squares, label="window"),)
    else:
        levels = nested_chain(data)
    h = data.draw(st.integers(1, 12), label="h")
    w = data.draw(st.integers(1, 12), label="w")
    bands = data.draw(st.integers(1, 3), label="bands")
    values = st.integers(0, 255) | st.floats(0.0, 255.0)
    samples = np.reshape(data.draw(st.lists(values, min_size=h * w * bands,
                                            max_size=h * w * bands)),
                         (h, w, bands)).astype(np.float64)
    metric = data.draw(st.sampled_from(("euclidean", "per_band_abs")), label="metric")
    # rho is one pixel's exact reference energy, so at least one window
    # sits exactly on the threshold, and fails it one ulp lower: any other
    # energy for that window flips one of the two verdicts.
    r0 = data.draw(st.integers(0, h - 1), label="tie row")
    c0 = data.draw(st.integers(0, w - 1), label="tie col")
    rho = per_pixel_energy(samples, levels, MrfModel(g, metric=metric), r0, c0)
    model = MrfModel(g, metric=metric, rho=rho)
    got = verdict_map(samples, levels, model)
    assert got.dtype == bool and got.shape == (h, w)
    assert np.array_equal(got, per_pixel_verdicts(samples, levels, model))
    assert got[r0, c0]
    if rho > 0:
        below = MrfModel(g, metric=metric, rho=np.nextafter(rho, 0.0))
        assert not verdict_map(samples, levels, below)[r0, c0]


# Noise seeds: the whole image is scored in one pass, so the check is
# repeated over a few noise draws.
@pytest.mark.parametrize("seed", [1, 100, 1750])
def test_gray_verdict_map_matches_per_pixel_reference(seed):
    """The whole-image map of an (h, w) gray image agrees with the
    per-pixel reference of its one-band form."""
    rng = np.random.default_rng(seed)
    samples = np.repeat([[40.0, 160.0]], 7, axis=0).repeat(5, axis=1)
    samples = samples + rng.normal(0, 2, size=samples.shape)
    model = MrfModel(rho=50.0)
    levels = (square_window(2), square_window(1))
    want = per_pixel_verdicts(samples[:, :, None], levels, model)
    assert 0 < want.sum() < want.size
    assert np.array_equal(verdict_map(samples, levels, model), want)


# The direct windows of the default max_level's last two levels, with 289
# and 361 positions: the energy layer counts more reads than uint8 holds.
@pytest.mark.parametrize("level", [8, 9])
def test_verdict_map_past_255_reads_matches_per_pixel_reference(level):
    """On a 20x20 gray image whose noise grows from left to right, the
    whole-image map of ``dilate(NINE_NEIGHBORHOOD, level)`` agrees with
    per-pixel ``evaluate``. rho is the exact energy per pixel of the
    center pixel's window, so that window sits exactly on the threshold,
    and fails it one ulp lower."""
    levels = (dilate(NINE_NEIGHBORHOOD, level),)
    assert len(levels[0]) == (2 * level + 1) ** 2 > 255
    rng = np.random.default_rng(level)
    samples = 100.0 + rng.normal(0.0, 1.0, size=(20, 20)) * np.linspace(1.0, 6.0, 20)
    model = MrfModel(rho=per_pixel_energy(samples[:, :, None], levels, MrfModel(), 10, 10))
    below = replace(model, rho=np.nextafter(model.rho, 0.0))
    for m in (model, below):
        want = per_pixel_verdicts(samples[:, :, None], levels, m)
        assert 0 < want.sum() < want.size
        assert want[10, 10] == (m is model)
        assert np.array_equal(verdict_map(samples, levels, m), want)


# One-pixel-wide images put every pixel's window across a row end of the
# net's flat frame, where a read past the end would wrap into the next
# row. Chains: a one-sided direct window (no read to the left or above),
# a holed pyramid chain, and a pyramid chain over a one-sided
# neighborhood, whose layers read one way only.
ONE_SIDED = Window(((0, 0), (1, 0), (2, 0), (0, 1)))
WRAP_CHAINS = {
    "one-sided": (NINE_NEIGHBORHOOD, (ONE_SIDED,)),
    "holed": (NINE_NEIGHBORHOOD,
              (Window(tuple(set(square_window(2).offsets) - {(2, 2), (-1, 2), (0, -2)})),
               Window(tuple(set(square_window(1).offsets) - {(1, 1)})))),
    "one-sided g": (ONE_SIDED, (dilate(ONE_SIDED, 2), dilate(ONE_SIDED, 1))),
}


@pytest.mark.parametrize("bands", [1, 3])
@pytest.mark.parametrize("chain", sorted(WRAP_CHAINS))
@pytest.mark.parametrize("shape", [(1, 17), (17, 1)], ids=["1x17", "17x1"])
def test_verdict_map_does_not_wrap_at_row_ends(shape, chain, bands):
    """On 1x17 and 17x1 images the whole-image map agrees with the
    per-pixel reference. rho is the exact reference energy of the first,
    a middle or the last pixel, so that window sits exactly on the
    threshold, and fails it one ulp lower."""
    g, levels = WRAP_CHAINS[chain]
    rng = np.random.default_rng(17)
    ramp = np.linspace(0.0, 200.0, 17).reshape(*shape, 1)
    samples = ramp + rng.normal(0.0, 3.0, size=(*shape, bands))
    for r0, c0 in ((0, 0), (shape[0] // 2, shape[1] // 2), (shape[0] - 1, shape[1] - 1)):
        model = MrfModel(g, rho=per_pixel_energy(samples, levels, MrfModel(g), r0, c0))
        below = replace(model, rho=np.nextafter(model.rho, 0.0))
        for m in (model, below) if model.rho > 0 else (model,):
            got = verdict_map(samples, levels, m)
            assert np.array_equal(got, per_pixel_verdicts(samples, levels, m))
            assert got[r0, c0] == (m is model)
