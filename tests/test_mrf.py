import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcvseg.geometry import FIVE_NEIGHBORHOOD, NINE_NEIGHBORHOOD, dilate, square_window
from mcvseg.pyramid import MrfModel, _ordered_sum
from mcvseg.reference import (_neighbor_means, _sequential_sum, calibrate_rho, energy, evaluate,
                              gibbs_distribution, neighborhood_squared, tau_rho_consistency)

from oracles import energy_reference, neighbor_means_reference

MODEL = MrfModel()


def test_model_validation():
    with pytest.raises(ValueError):
        MrfModel(metric="manhattan")
    with pytest.raises(ValueError):
        MrfModel(temperature=0.0)
    with pytest.raises(ValueError):
        MrfModel(rho=-1.0)
    with pytest.raises(ValueError):
        MrfModel(rho=float("nan"))
    for field, value in (("rho", True), ("rho", np.True_), ("temperature", True),
                         ("temperature", np.True_)):
        with pytest.raises(TypeError, match=f"{field} must be a number"):
            MrfModel(**{field: value})


def test_energy_constant_patch_zero():
    assert energy(np.full((5, 4), 3.25), MODEL) == 0.0


def test_energy_three_pixel_line():
    # [0,1,0]: ends predict 1 and deviate by 1 each, middle predicts 0 and
    # deviates by 1; total 3
    assert energy(np.array([[0.0, 1.0, 0.0]]), MODEL) == 3.0


def test_energy_ramp():
    # [0,1,2,3]: interior pixels sit on their neighbor means, ends miss by 1
    assert energy(np.array([[0.0, 1.0, 2.0, 3.0]]), MODEL) == 2.0


def test_energy_shift_invariance_exact():
    rng = np.random.default_rng(0)
    patch = rng.integers(0, 256, size=(6, 6)).astype(np.float64)
    assert energy(patch + 17.0, MODEL) - energy(patch, MODEL) == 0.0


def test_energy_scale_covariance():
    rng = np.random.default_rng(1)
    patch = rng.random((5, 5)) * 100
    u = energy(patch, MODEL)
    assert abs(energy(2.5 * patch, MODEL) - 2.5**2 * u) <= 1e-9 * 2.5**2 * u


def test_energy_isolated_pixels_contribute_zero():
    mask = np.array([[True, False, True]])
    vals = np.array([[5.0, 9.0, -3.0]])
    assert energy(vals, MODEL, mask) == 0.0


def test_energy_empty_region_raises():
    with pytest.raises(ValueError):
        energy(np.zeros((2, 2)), MODEL, np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        energy(np.zeros((2, 2)), MODEL, np.zeros((3, 2), dtype=bool))


def test_energy_matches_reference_scalar():
    rng = np.random.default_rng(2)
    for model in (MODEL, MrfModel(neighborhood=FIVE_NEIGHBORHOOD),
                  MrfModel(metric="per_band_abs")):
        for _ in range(25):
            h, w = rng.integers(1, 7, size=2)
            patch = rng.integers(0, 50, size=(h, w)).astype(np.float64)
            mask = rng.random((h, w)) < 0.7
            if not mask.any():
                continue
            values = {(c + 1, r + 1): patch[r, c]
                      for r in range(h) for c in range(w)}
            region = {(c + 1, r + 1)
                      for r in range(h) for c in range(w) if mask[r, c]}
            expected = energy_reference(values, region,
                                        model.neighborhood.offsets,
                                        model.metric)
            assert energy(patch, model, mask) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_energy_matches_reference_multiband():
    rng = np.random.default_rng(3)
    for metric in ("euclidean", "per_band_abs"):
        model = MrfModel(metric=metric)
        patch = rng.integers(0, 20, size=(4, 4, 3)).astype(np.float64)
        values = {(c + 1, r + 1): tuple(patch[r, c]) for r in range(4) for c in range(4)}
        region = {(c + 1, r + 1) for r in range(4) for c in range(4)}
        expected = energy_reference(values, region, model.neighborhood.offsets, metric)
        assert energy(patch, model) == pytest.approx(expected, rel=1e-12)


def test_metrics_agree_on_single_band():
    rng = np.random.default_rng(4)
    patch = rng.random((5, 5)) * 9
    assert energy(patch, MrfModel(metric="euclidean")) == pytest.approx(
        energy(patch, MrfModel(metric="per_band_abs")), rel=1e-12)


def test_evaluate_thresholds_per_pixel_energy():
    patch = np.array([[0.0, 1.0, 0.0]])  # U = 3 over 3 pixels
    assert evaluate(patch, MrfModel(rho=1.0)) == 1
    assert evaluate(patch, MrfModel(rho=0.999)) == 0
    assert evaluate(np.full((3, 3), 8.0), MrfModel(rho=0.0)) == 1


def test_gibbs_two_pixel_exact():
    table = gibbs_distribution([(1, 1), (2, 1)], [0.0, 1.0], MrfModel())
    assert sorted(table.energies.tolist()) == [0.0, 0.0, 2.0, 2.0]
    assert table.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    expected = math.exp(-2.0) / (1.0 + math.exp(-2.0))
    assert table.mean_energy_per_pixel() == pytest.approx(expected, rel=1e-12)


def test_gibbs_constant_only_value():
    table = gibbs_distribution([(1, 1), (2, 1), (1, 2)], [7.0], MrfModel())
    assert table.energies.tolist() == [0.0]
    assert table.probabilities.tolist() == [1.0]


def test_gibbs_guard():
    region = [(c, r) for c in range(1, 6) for r in range(1, 6)]
    with pytest.raises(ValueError):
        gibbs_distribution(region, [0.0, 1.0], MrfModel())


def test_gibbs_vector_values():
    table = gibbs_distribution([(1, 1), (2, 1)], [(0.0, 0.0), (1.0, 1.0)],
                               MrfModel())
    assert sorted(table.energies.tolist()) == [0.0, 0.0, 4.0, 4.0]
    assert table.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("shape", [(2, 4), (3, 3)], ids=["2x4", "3x3"])
@pytest.mark.parametrize("values", [[0.0, 0.3, 1.7], [(0.3, 1.7, 0.0), (1.7, 0.0, 0.3)]],
                         ids=["gray", "rgb"])
@pytest.mark.parametrize("metric", ["euclidean", "per_band_abs"])
def test_gibbs_energies_are_energy_bitwise(shape, values, metric):
    """Every enumerated state's energy is bitwise ``energy`` of that state,
    so the Gibbs table thresholds the energies ``evaluate`` thresholds."""
    h, w = shape
    model = MrfModel(metric=metric)
    region = [(c, r) for r in range(1, h + 1) for c in range(1, w + 1)]
    table = gibbs_distribution(region, values, model)
    mask = np.ones(shape, dtype=bool)
    got = np.array([energy(np.reshape(s, (h, w, -1)), model, mask) for s in table.states])
    assert np.count_nonzero(got != table.energies) == 0


def _left_to_right(values):
    total = values[0]
    for v in values[1:]:
        total += v
    return total


@pytest.mark.parametrize("bands", [1, 2, 3, 4, 5])
def test_ordered_sum_adds_left_to_right(bands):
    """``_ordered_sum`` over 1 to 5 bands, and ``reference._sequential_sum``
    over a 1-D array, are bit for bit a Python sum from the first element
    on, on values where the order of the adds moves the result:
    1 + 1e16 - 1e16 is 0 that way, but 1 from the right."""
    rng = np.random.default_rng(bands)
    pool = [1e16, 1.0, -1e16, 0.1, -0.0, 3.0, 2.0**-40]
    x = rng.choice(pool, size=(6, 7, bands))
    x[0, 0, :3] = [1.0, 1e16, -1e16][:bands]
    want = np.array([[_left_to_right(px.tolist()) for px in row] for row in x])
    got = _ordered_sum(x)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    flat = x.reshape(-1)
    assert np.float64(_sequential_sum(flat)).view(np.int64) == \
        np.float64(_left_to_right(flat.tolist())).view(np.int64)
    if bands >= 3:
        first = x[0, 0].tolist()
        assert got[0, 0] == _left_to_right(first) != _left_to_right(first[::-1])


#: Read windows of a mean layer: the two base neighborhoods, with their
#: origin, and square_window(8) without it, whose 288 reads overflow a
#: uint8 count.
MEAN_READS = {"nine": NINE_NEIGHBORHOOD.offsets, "five": FIVE_NEIGHBORHOOD.offsets,
              "square 8": tuple(o for o in square_window(8).offsets if o != (0, 0))}
#: Band values: signed zeros, the smallest subnormals, whose means
#: underflow, and finite floats small enough that no sum overflows.
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -1.0, 3.0, 1e16]


@st.composite
def mean_layer_cases(draw):
    """Arguments of one ``_neighbor_means`` call: one or two sources, with
    or without a leading batch axis, masks random or full, values drawn
    from a small pool, reads in window order or shuffled, and an output
    mask with positions that are off or have no read."""
    offsets = list(MEAN_READS[draw(st.sampled_from(sorted(MEAN_READS)))])
    if draw(st.booleans()):
        offsets = draw(st.permutations(offsets))
    reach = max(max(abs(dx), abs(dy)) for dx, dy in offsets)
    keys = draw(st.integers(1, 2))
    reads = list(zip(offsets, draw(st.lists(st.integers(0, keys - 1), min_size=len(offsets),
                                            max_size=len(offsets)))))
    batch = draw(st.sampled_from([(), (2,)]))
    hs, ws = draw(st.integers(1, 2 * reach + 2)), draw(st.integers(1, 2 * reach + 2))
    bands = draw(st.integers(1, 3))
    pool = draw(st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(-1e300, 1e300),
                         min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sources = {}
    for k in range(keys):
        mask = np.ones((*batch, hs, ws), dtype=bool)
        if draw(st.booleans()):
            mask = rng.random(mask.shape) < draw(st.sampled_from([0.2, 0.5, 0.9]))
        sources[k] = (rng.choice(pool, size=(*batch, hs, ws, bands)) * mask[..., None], mask)
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    out_mask = rng.random((h, w)) < draw(st.sampled_from([0.5, 1.0]))
    dy0, dx0 = draw(st.integers(-reach, hs - 1)), draw(st.integers(-reach, ws - 1))
    return sources, reads, out_mask, dy0, dx0


def _one_source(values, reads, out_mask, dy0=0, dx0=0):
    """A case with one single-band source, on the mask everywhere."""
    values = np.array(values, dtype=np.float64)[..., None]
    mask = np.ones(values.shape[:-1], dtype=bool)
    return {0: (values, mask)}, reads, np.array(out_mask), dy0, dx0


@settings(max_examples=150, deadline=None)
@given(mean_layer_cases())
# 288 reads, all on the mask at the one position
@example(_one_source(np.arange(17.0 * 17).reshape(17, 17),
                     [(o, 0) for o in MEAN_READS["square 8"]], [[True]], 8, 8))
# a negative sum off the output mask; a negative mean that underflows
@example(_one_source([[-1.0]], [((0, 0), 0)], [[False]]))
@example(_one_source([[-5e-324, 0.0]], [((0, 0), 0), ((1, 0), 0)], [[True]]))
def test_neighbor_means_matches_per_position_reference(case):
    """``_neighbor_means`` is bit for bit a loop that adds, per position,
    the in-mask reads in order and divides once: same values, every zero
    +0.0, and the same mask."""
    sources, reads, out_mask, dy0, dx0 = case
    got, has = _neighbor_means(sources, reads, out_mask, dy0, dx0)
    want, want_has = neighbor_means_reference(sources, reads, out_mask, dy0, dx0)
    assert np.array_equal(has, want_has)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_tau_rho_consistency_cases():
    model_lo = MrfModel(rho=0.5)
    model_hi = MrfModel(rho=2.0, temperature=0.8)
    boundary = MrfModel(rho=1.0)  # rho*|R| = 2 hits an achieved energy
    for model in (model_lo, model_hi, boundary):
        assert tau_rho_consistency([(1, 1), (2, 1)], [0.0, 1.0], model)
        assert tau_rho_consistency([(1, 1), (2, 1), (3, 1)], [0.0, 1.0, 2.0],
                                   model)


def test_calibrate_rho_deterministic():
    model = MrfModel()
    a = calibrate_rho((2, 2), [0.0, 1.0], model, samples=500, seed=9)
    b = calibrate_rho((2, 2), [0.0, 1.0], model, samples=500, seed=9)
    c = calibrate_rho((2, 2), [0.0, 1.0], model, samples=500, seed=10)
    assert a == b
    assert a != c


@pytest.mark.parametrize("values, metric", [
    ([0.0, 0.3, 1.7], "euclidean"),
    ([(0.0, 0.3, 1.7), (1.7, 0.0, 0.3), (0.3, 1.7, 0.0)], "per_band_abs"),
], ids=["gray", "rgb"])
def test_calibrate_rho_does_not_depend_on_builtin_sum(values, metric):
    """The chain adds its energy changes in one fixed order, so a
    compensated builtin ``sum`` (Python 3.12 and later) moves nothing."""
    model = MrfModel(metric=metric)
    want = calibrate_rho((3, 3), values, model, samples=2000, seed=0)
    with mock.patch("builtins.sum", math.fsum):
        got = calibrate_rho((3, 3), values, model, samples=2000, seed=0)
    assert got == want


def test_calibrate_rho_degenerate_cases():
    model = MrfModel()
    # single pixel: no neighbors, energy identically zero
    assert calibrate_rho((1, 1), [0.0, 5.0], model, samples=100) == 0.0
    # single value: constant image, energy identically zero
    assert calibrate_rho((3, 3), [4.0], model, samples=100) == 0.0
    with pytest.raises(ValueError):
        calibrate_rho((2, 2), [0.0], model, samples=0)
    with pytest.raises(ValueError):
        calibrate_rho((2, 2), [], model, samples=10)


def test_calibrate_rho_near_exact_mean():
    model = MrfModel()
    table = gibbs_distribution([(1, 1), (2, 1)], [0.0, 1.0], model)
    exact = table.mean_energy_per_pixel()
    est = calibrate_rho((1, 2), [0.0, 1.0], model, samples=30000, seed=1)
    assert abs(est - exact) < 0.02


def test_neighborhood_squared():
    assert neighborhood_squared(NINE_NEIGHBORHOOD) == dilate(NINE_NEIGHBORHOOD, 2)
    assert len(neighborhood_squared(NINE_NEIGHBORHOOD)) == 25
    assert neighborhood_squared(FIVE_NEIGHBORHOOD) == dilate(FIVE_NEIGHBORHOOD, 2)
