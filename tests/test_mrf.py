import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcvseg.geometry import FIVE_NEIGHBORHOOD, NINE_NEIGHBORHOOD, dilate
from mcvseg.mrf import (MrfModel, calibrate_rho, energy, evaluate,
                        evaluate_batch, gibbs_distribution,
                        neighborhood_squared, tau_rho_consistency)

from oracles import energy_reference

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


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_evaluate_batch_matches_evaluate(data):
    """Each batch verdict is ``evaluate`` on that window, on random hole
    masks (with isolated pixels and off-mask values that must not count)
    and with ``rho`` exactly one window's per-pixel energy."""
    n, h, w = (data.draw(st.integers(1, 6), label=k) for k in "nhw")
    bands = data.draw(st.integers(1, 3), label="bands")
    g = data.draw(st.sampled_from((FIVE_NEIGHBORHOOD, NINE_NEIGHBORHOOD)), label="g")
    metric = data.draw(st.sampled_from(("euclidean", "per_band_abs")), label="metric")
    values = st.integers(0, 255) | st.floats(0.0, 255.0)
    vals = np.reshape(data.draw(st.lists(values, min_size=n * h * w * bands,
                                         max_size=n * h * w * bands)),
                      (n, h, w, bands)).astype(np.float64)
    mask = np.reshape(data.draw(st.lists(st.booleans(), min_size=n * h * w,
                                         max_size=n * h * w)), (n, h, w))
    mask[:, 0, 0] |= ~mask.any(axis=(1, 2))  # every window keeps a pixel
    t = data.draw(st.integers(0, n - 1), label="tie window")
    rho = energy(vals[t], MrfModel(g, metric=metric), mask[t]) / np.count_nonzero(mask[t])
    model = MrfModel(g, metric=metric, rho=rho)
    got = evaluate_batch(vals, mask, model)
    assert isinstance(got, np.ndarray) and got.dtype == bool and got.shape == (n,)
    assert got.tolist() == [bool(evaluate(vals[i], model, mask[i])) for i in range(n)]
    assert got[t]


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
