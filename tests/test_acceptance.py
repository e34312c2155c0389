"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every check here leans on an independent oracle (breadth-first flood
fill, literal set arithmetic, quadratic pair counting, a transition
matrix for the sampler) or on frozen ground-truth images, never on the
code under test.
"""

import itertools
import math
import time

import numpy as np

from mcvseg.driver import McvConfig, run_mcv
from mcvseg.geometry import (FIVE_NEIGHBORHOOD, Lattice, NINE_NEIGHBORHOOD,
                             dilate, square_window, Window)
from mcvseg.partition import (Partition, canonicalize, connected_components, rand_index,
                              singletons)
from mcvseg.pnmio import ImageBuffer
from mcvseg.pyramid import MrfModel, make_pyramid_evaluator
from mcvseg.reference import (calibrate_rho, downsample, energy, evaluate, gibbs_distribution,
                              m_step, merge_step, pyramid_evaluate, tau_rho_consistency)

from oracles import bfs_components, merge_sets, rand_brute

LINE3 = Window(((0, 0), (-1, 0), (1, 0)))


def report(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def gray_image(values, max_value=255):
    arr = np.asarray(values, dtype=np.float64)
    lat = Lattice(arr.shape[1], arr.shape[0])
    return ImageBuffer(lat, 1, arr[:, :, None], max_value)


def mask_pixels(rng, w, h, fill=0.5):
    picks = rng.random((h, w)) < fill
    return [(c + 1, r + 1) for r in range(h) for c in range(w) if picks[r, c]]


def oracle_labels(pixels, comps, w, h):
    """Canonical label array for a component family: labels follow first
    occurrence in raster order, absent pixels are -1."""
    out = np.full((h, w), -1, dtype=np.int32)
    owner = {}
    for comp in comps:
        for q in comp:
            owner[q] = comp
    next_label = 0
    assigned = {}
    for c, r in sorted(pixels, key=lambda q: (q[1], q[0])):
        comp = owner[(c, r)]
        if comp not in assigned:
            assigned[comp] = next_label
            next_label += 1
        out[r - 1, c - 1] = assigned[comp]
    return out


def test_criterion_01_components_match_bfs_oracle():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0
    for _ in range(500):
        pixels = mask_pixels(rng, 16, 16)
        part = connected_components(pixels, NINE_NEIGHBORHOOD, Lattice(16, 16))
        got = canonicalize(part).labels
        comps = bfs_components(pixels, NINE_NEIGHBORHOOD.offsets, 16, 16)
        want = oracle_labels(pixels, comps, 16, 16)
        assert np.array_equal(got, want)
        worst = max(worst, len(comps))
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 5.0,
           f"500 masks vs flood fill, up to {worst} components, {elapsed:.2f}s")


def test_criterion_02_order_independence():
    """The paper's merging operator, applied once at every pixel of a
    mask, leaves the flood-fill components whatever the order: the
    partition ``connected_components`` computes."""
    rng = np.random.default_rng(202)
    lat = Lattice(12, 12)
    checked = 0
    for _ in range(50):
        pixels = mask_pixels(rng, 12, 12)
        if not pixels:
            continue
        want = oracle_labels(pixels, bfs_components(pixels, NINE_NEIGHBORHOOD.offsets, 12, 12),
                             12, 12)
        assert np.array_equal(connected_components(pixels, NINE_NEIGHBORHOOD, lat).labels, want)
        for _ in range(10):
            p = singletons(pixels, lat)
            for i in rng.permutation(len(pixels)).tolist():
                p = m_step(pixels[i], p, NINE_NEIGHBORHOOD)
            assert np.array_equal(canonicalize(p).labels, want)
            checked += 1
    report(2, True, f"{checked} order/mask runs of m_step, all the flood-fill partition")


def _random_partition(rng, w, h, max_blocks):
    labels = rng.integers(0, max_blocks, size=(h, w)).astype(np.int32)
    return Partition(Lattice(w, h), labels)


def test_criterion_03_merge_matches_set_oracle():
    rng = np.random.default_rng(303)
    windows = (NINE_NEIGHBORHOOD, FIVE_NEIGHBORHOOD)
    psis = (square_window(1), square_window(2), LINE3)
    for _ in range(200):
        w, h = int(rng.integers(3, 9)), int(rng.integers(3, 7))
        p = _random_partition(rng, w, h, int(rng.integers(2, 6)))
        x = (int(rng.integers(1, w + 1)), int(rng.integers(1, h + 1)))
        w0 = windows[int(rng.integers(0, 2))]
        psi = psis[int(rng.integers(0, 3))]
        got = {frozenset(b) for b in merge_step(x, p, w0, psi).blocks().values()}
        want = merge_sets(list(p.blocks().values()), x, w0.offsets,
                          psi.offsets, w, h)
        want = {frozenset(b) for b in want}
        assert got == want

    # documented split on a 1x6 line: merging at pixel 3 with 1-wide
    # windows leaves both leftovers behind as separate blocks
    p = Partition(Lattice(6, 1), np.array([[0, 0, 0, 1, 1, 1]], dtype=np.int32))
    out = merge_step((3, 1), p, LINE3, LINE3)
    split_ok = {frozenset(b) for b in out.blocks().values()} == {
        frozenset({(1, 1)}),
        frozenset({(2, 1), (3, 1), (4, 1)}),
        frozenset({(5, 1), (6, 1)}),
    }
    report(3, split_ok, "200 random merges equal set arithmetic, split case exact")


def _level_counts(seq):
    return [(st.level, st.evaluations, st.accepted, st.region_count)
            for st in seq.stats]


def test_criterion_04_parallel_equals_sequential():
    rng = np.random.default_rng(404)
    cases = 30
    for _ in range(cases):
        w, h = int(rng.integers(1, 11)), int(rng.integers(1, 9))
        tones = rng.integers(0, 4, size=(h, w)) * 60.0
        img = gray_image(tones + rng.normal(0.0, 2.0, size=(h, w)))
        order = ("raster", "random", "reshuffle")[int(rng.integers(0, 3))]
        fields = dict(
            max_level=int(rng.integers(1, 4)),
            permutation="raster" if order == "raster" else "random",
            reshuffle_per_level=order == "reshuffle",
            seed=int(rng.integers(0, 100)),
            rho=float(rng.choice([1.0, 10.0, 50.0])),
            neighborhood=int(rng.choice([4, 8])),
            metric=str(rng.choice(["l1", "l2"])),
            eval_mode=str(rng.choice(["direct", "pyramid"])),
        )
        base = run_mcv(img, McvConfig(workers=1, **fields))
        for workers in (2, 3, 8):
            got = run_mcv(img, McvConfig(workers=workers, **fields))
            assert len(got.levels) == len(base.levels)
            for a, b in zip(got.levels, base.levels):
                assert np.array_equal(a.labels, b.labels)
            assert _level_counts(got) == _level_counts(base)
    report(4, True, f"workers {{1,2,3,8}} give bitwise equal sequences and "
                    f"LevelStats on {cases} random runs")


def test_criterion_05_energy_ground_truths():
    model = MrfModel()
    flat = energy(np.full((5, 5), 42.0), model)
    bump = energy(np.array([[0.0, 1.0, 0.0]]), model)

    rng = np.random.default_rng(505)
    # integer tones parked inside one binade: every neighbor mean, shifted
    # mean, and deviation then lives on one ulp grid and cancels exactly
    patch = 1024.0 + rng.integers(0, 256, size=(6, 6)).astype(np.float64)
    shift_delta = abs(energy(patch + 384.0, model) - energy(patch, model))

    fpatch = rng.random((6, 6)) * 100
    base = energy(fpatch, model)
    scaled = energy(3.0 * fpatch, model)
    scale_err = abs(scaled - 9.0 * base) / (9.0 * base)

    ok = flat == 0.0 and bump == 3.0 and shift_delta == 0.0 and scale_err < 1e-9
    report(5, ok, f"flat={flat}, bump={bump}, shiftΔ={shift_delta}, "
                  f"scale rel err={scale_err:.2e}")


def _pick_boundary_rhos(energies, k):
    """Achieved per-pixel energies usable as exact thresholds: the region
    size must be a power of two so e/k*k round-trips bitwise, and the
    achieved value must be well separated from its neighbors."""
    if k & (k - 1):
        return []
    uniq = np.unique(energies)
    out = []
    for j in (len(uniq) // 2, len(uniq) - 1):
        e = float(uniq[j])
        near = uniq[max(0, j - 1):j + 2]
        gap = min((abs(float(v) - e) for v in near if float(v) != e),
                  default=1.0)
        if (e / k) * k == e and gap > 1e-9 * max(1.0, abs(e)):
            out.append(e / k)
    return out


def test_criterion_06_gibbs_threshold_consistency():
    regions = {
        "single": [(1, 1)],
        "pair": [(1, 1), (2, 1)],
        "line3": [(1, 1), (2, 1), (3, 1)],
        "square": [(1, 1), (2, 1), (1, 2), (2, 2)],
        "ell": [(1, 1), (2, 1), (1, 2)],
        "block6": [(c, r) for r in (1, 2) for c in (1, 2, 3)],
        "block8": [(c, r) for r in (1, 2) for c in (1, 2, 3, 4)],
        "far_pair": [(1, 1), (4, 1)],
    }
    value_sets = {
        "bits": [0.0, 1.0],
        "trits": [0.0, 1.0, 2.0],
        "quads": [0.0, 2.0, 5.0, 7.0],
        "signed": [-1.0, 1.0],
    }
    checks = 0
    for region in regions.values():
        for values in value_sets.values():
            n_states = len(values) ** len(region)
            if n_states > 2 ** 16:
                continue
            gt = gibbs_distribution(region, values, MrfModel())
            assert abs(float(gt.probabilities.sum()) - 1.0) <= 1e-12
            if n_states <= 4096:
                models = [
                    MrfModel(rho=0.0),
                    MrfModel(rho=0.5),
                    MrfModel(rho=2.0),
                    MrfModel(rho=1.0, temperature=0.5),
                    MrfModel(rho=1.0, temperature=2.0),
                    MrfModel(rho=1.0, metric="per_band_abs"),
                ]
            else:
                models = [MrfModel(rho=1.0)]
            for rho in _pick_boundary_rhos(gt.energies, len(region)):
                models.append(MrfModel(rho=rho))
            for model in models:
                assert tau_rho_consistency(region, values, model)
                checks += 1
    report(6, True, f"{checks} (region, values, model) combinations exact")


def _sampler_truth(n):
    """Exact mean and standard error of the two-pixel sampler's running
    energy average, from the chain's 4-state transition matrix."""
    states = [(0, 0), (0, 1), (1, 0), (1, 1)]
    total_u = np.array([2.0 * (a - b) ** 2 for a, b in states])
    index = {s: i for i, s in enumerate(states)}
    P = np.zeros((4, 4))
    for si, s in enumerate(states):
        for site in (0, 1):
            for v in (0, 1):
                t = list(s)
                t[site] = v
                ti = index[tuple(t)]
                accept = min(1.0, math.exp(-(total_u[ti] - total_u[si])))
                P[si, ti] += 0.25 * accept
                P[si, si] += 0.25 * (1.0 - accept)
    weights = np.exp(-total_u)
    pi = weights / weights.sum()
    f = total_u / 2.0  # per-pixel energy observable
    mu = float(pi @ f)
    centered = f - mu
    var = float(pi @ centered ** 2)
    g = f.copy()
    for _ in range(10000):
        g = P @ g
        c_t = float(pi @ (centered * (g - mu)))
        var += 2.0 * c_t
        if abs(c_t) < 1e-18:
            break
    return mu, math.sqrt(var / n)


def test_criterion_07_metropolis_calibration():
    model = MrfModel(temperature=1.0)
    n = 10 ** 5
    estimate = calibrate_rho((1, 2), [0.0, 1.0], model, samples=n, seed=0)
    exact = gibbs_distribution([(1, 1), (2, 1)], [0.0, 1.0],
                               model).mean_energy_per_pixel()
    mu, se = _sampler_truth(n)
    assert abs(mu - exact) < 1e-12  # the matrix and the enumeration agree
    err = abs(estimate - exact)
    report(7, err <= 3.0 * se,
           f"|{estimate:.5f} - {exact:.5f}| = {err:.5f} <= 3*SE = {3 * se:.5f}")


def test_criterion_08_pyramid_equals_composition():
    rng = np.random.default_rng(808)
    model = MrfModel()
    g = model.neighborhood
    checked = 0
    for level in (1, 2, 3):
        levels = make_pyramid_evaluator(model, level)
        top = dilate(g, level)
        h, w = top.mask().shape
        for _ in range(100):
            rho = float(rng.choice([0.5, 2.0, 10.0, 100.0]))
            m = MrfModel(rho=rho)
            levels_m = make_pyramid_evaluator(m, level)
            values = rng.random((h, w)) * 100
            vals, mask = values[:, :, None], top.mask()
            for j in range(level, 1, -1):
                vals, mask = downsample(vals, mask, dilate(g, j), dilate(g, j - 1), g)
            want = evaluate(vals, m, mask)
            got = pyramid_evaluate(values, levels_m, m)
            assert got == want
            checked += 1
        assert levels[0] == top
    report(8, True, f"{checked} patches, decisions identical at levels 1..3")


QUADRANT_TONES = (0.0, 80.0, 160.0, 240.0)


def quadrant_image(n, tones, noise_sigma=0.0, noise_seed=0):
    half = n // 2
    base = np.empty((n, n))
    base[:half, :half] = tones[0]
    base[:half, half:] = tones[1]
    base[half:, :half] = tones[2]
    base[half:, half:] = tones[3]
    if noise_sigma > 0:
        base = base + np.random.default_rng(noise_seed).normal(
            0.0, noise_sigma, size=(n, n))
    return gray_image(base)


def quadrant_truth(n):
    half = n // 2
    truth = np.zeros((n, n), dtype=np.int32)
    truth[:half, half:] = 1
    truth[half:, :half] = 2
    truth[half:, half:] = 3
    return truth


def test_criterion_09_recovery():
    t0 = time.perf_counter()
    cfg = McvConfig(max_level=7, permutation="random", seed=0, rho=1.0,
                    eval_windows=(NINE_NEIGHBORHOOD,) * 7)
    seq = run_mcv(quadrant_image(32, QUADRANT_TONES), cfg)
    quad_ok = np.array_equal(seq.final().labels, quadrant_truth(32))

    flat_seq = run_mcv(gray_image(np.full((16, 16), 128.0)), McvConfig())
    flat_regions = flat_seq.stats[-1].region_count
    elapsed = time.perf_counter() - t0

    ok = quad_ok and flat_regions == 1 and elapsed < 10.0
    report(9, ok, f"quadrants exact={quad_ok}, flat regions={flat_regions}, "
                  f"{elapsed:.2f}s")


def first_single_digit_level(seq):
    for level, count in enumerate(seq.region_counts()):
        if count <= 9:
            return level
    return None


def test_criterion_10_stability():
    img = quadrant_image(64, (40.0, 110.0, 180.0, 250.0),
                         noise_sigma=2.0, noise_seed=42)
    finals = []
    for seed in range(5):
        cfg = McvConfig(max_level=7, permutation="random", seed=seed, rho=50.0,
                        eval_windows=(NINE_NEIGHBORHOOD,) * 7)
        finals.append(run_mcv(img, cfg).final())
    worst = min(rand_index(a, b) for a, b in itertools.combinations(finals, 2))

    flat = gray_image(np.full((16, 16), 55.0))
    random_level = first_single_digit_level(
        run_mcv(flat, McvConfig(max_level=6, rho=1.0, permutation="random",
                                seed=0)))
    raster_level = first_single_digit_level(
        run_mcv(flat, McvConfig(max_level=6, rho=1.0, permutation="raster")))

    ok = (worst >= 0.95 and random_level is not None
          and raster_level is not None and random_level <= raster_level)
    report(10, ok, f"worst pairwise Rand={worst:.4f}, single digit at level "
                   f"{random_level} random vs {raster_level} raster")


def test_criterion_11_rand_index_oracle():
    rng = np.random.default_rng(1111)
    for _ in range(100):
        w = int(rng.integers(1, 9))
        h = int(rng.integers(2, min(9, 64 // w + 1)))
        p1 = _random_partition(rng, w, h, int(rng.integers(1, 7)))
        p2 = _random_partition(rng, w, h, int(rng.integers(1, 7)))
        got = rand_index(p1, p2)
        assign1 = {q: p1.label_at(q) for q in p1.lattice.pixels()}
        assign2 = {q: p2.label_at(q) for q in p2.lattice.pixels()}
        assert got == rand_brute(assign1, assign2)

    lat = Lattice(3, 1)
    third = rand_index(Partition(lat, np.array([[0, 0, 1]], dtype=np.int32)),
                       Partition(lat, np.array([[0, 1, 1]], dtype=np.int32)))
    report(11, third == 1 / 3,
           f"100 pairs equal brute force, three-pixel case = {third:.6f}")
