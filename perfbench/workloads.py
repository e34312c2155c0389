"""Workload definitions and the deterministic input generator.

Each workload is a tiled test image (random tones plus Gaussian noise)
and an ``McvConfig``; ``BENCHMARK.json`` records why each one exists.
The program only ever sees the PNM bytes the generator emits; the seed
decides the tones and the noise.

Golden digests exist for ``VARIANTS`` input seeds per workload, so a
benchmark seed picks the input variant ``seed % VARIANTS``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

VARIANTS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    width: int
    height: int
    bands: int
    tiles: int
    noise_sigma: float
    # McvConfig fields; "pin_eval_to_base" pins every eval window to w0.
    config: dict
    pin_eval_to_base: bool = False

    def pixels(self) -> int:
        return self.width * self.height


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gray-direct",
            64, 64, 1, 4, 2.0,
            dict(max_level=7, rho=50.0, permutation="random", eval_mode="direct",
                 neighborhood=8, workers=1),
        ),
        Workload(
            "color-pyramid",
            48, 48, 3, 3, 2.0,
            dict(max_level=6, rho=50.0, permutation="random", eval_mode="pyramid",
                 metric="l1", reshuffle_per_level=True, neighborhood=8, workers=1),
        ),
        Workload(
            "merge-4n-w2",
            64, 64, 1, 6, 2.0,
            dict(max_level=7, rho=50.0, permutation="random", eval_mode="direct",
                 neighborhood=4, workers=2),
            pin_eval_to_base=True,
        ),
    )
}


def smoke(w: Workload) -> Workload:
    """The same workload shrunk to a tiny image and 2 levels."""
    side = 3 * w.tiles
    return replace(w, width=side, height=side, config=dict(w.config, max_level=2))


def make_config(w: Workload, seed: int):
    """The McvConfig for ``w``; the permutation seed is the input seed."""
    from mcvseg import McvConfig

    cfg = McvConfig(seed=seed, **w.config)
    if w.pin_eval_to_base:
        cfg = replace(cfg, eval_windows=(cfg.w0,) * cfg.max_level)
    return cfg


def generate(w: Workload, seed: int) -> bytes:
    """PNM bytes of a ``tiles`` x ``tiles`` grid of random tones plus
    Gaussian noise, 8-bit P5 (gray) or P6 (color)."""
    rng = np.random.default_rng([seed, w.width, w.height, w.bands, w.tiles])
    tones = rng.integers(20, 236, size=(w.tiles, w.tiles, w.bands))
    ty = np.arange(w.height) * w.tiles // w.height
    tx = np.arange(w.width) * w.tiles // w.width
    clean = tones[ty[:, None], tx[None, :]].astype(np.float64)
    noisy = clean + rng.normal(0.0, w.noise_sigma, size=clean.shape)
    raster = np.clip(np.rint(noisy), 0, 255).astype(np.uint8)
    magic = b"P5" if w.bands == 1 else b"P6"
    header = magic + b"\n%d %d\n255\n" % (w.width, w.height)
    return header + raster.tobytes()
