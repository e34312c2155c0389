"""Golden corpus: SHA-256 digests of the ``segment`` output bytes.

Each case runs the segmentation on a small 12x12 image (8-bit gray, 8-bit
RGB or 16-bit gray) for 3 levels and hashes exactly what ``mcvseg segment``
writes: every ``level_*`` label map, ``final.ppm`` and ``stats.txt``. The
config matrix covers the raster, random and reshuffled orders, direct and
pyramid evaluation, 4- and 8-neighborhoods, the l1 and l2 metrics, default,
pinned or overridden eval windows, overridden merge windows, and 1 or 2
workers.

The digests were recorded once and must never move: a refactor that
changes one changed the program's output. To print the digests of the
current code, run ``PYTHONPATH=src python3 tests/test_golden.py``.
"""

import hashlib

import numpy as np
import pytest

from mcvseg import (FIVE_NEIGHBORHOOD, ImageBuffer, Lattice, McvConfig,
                    NINE_NEIGHBORHOOD, colorize, dilate, run_mcv, save_labels,
                    save_pnm, square_window)
from mcvseg.cli import _stats_text, main

SIDE = 12
LEVELS = 3


def make_image(kind: str) -> ImageBuffer:
    """Four tone quadrants plus Gaussian noise; fixed per kind."""
    bands, max_value, sigma = {"gray": (1, 255, 3.0), "rgb": (3, 255, 3.0),
                               "gray16": (1, 65535, 600.0)}[kind]
    rng = np.random.default_rng([SIDE, bands, max_value])
    tones = rng.integers(0, max_value + 1, size=(2, 2, bands))
    half = np.arange(SIDE) * 2 // SIDE
    clean = tones[half[:, None], half[None, :]].astype(np.float64)
    noisy = clean + rng.normal(0.0, sigma, size=clean.shape)
    samples = np.clip(np.rint(noisy), 0, max_value)
    return ImageBuffer(Lattice(SIDE, SIDE), bands, samples, max_value)


PINNED_8 = (NINE_NEIGHBORHOOD,) * LEVELS
PINNED_4 = (FIVE_NEIGHBORHOOD,) * LEVELS
SQUARE_MERGE = tuple(square_window(r) for r in (1, 2, 3))
DIAMOND_MERGE = tuple(dilate(FIVE_NEIGHBORHOOD, i) for i in (1, 2, 4))
# Pyramid evaluation needs strictly nested eval windows, so it cannot pin.
SKIP_EVAL_8 = tuple(square_window(r) for r in (1, 2, 4))
SKIP_EVAL_4 = tuple(dilate(FIVE_NEIGHBORHOOD, i) for i in (1, 3, 4))

# name -> (image kind, McvConfig fields)
CASES = {
    "gray-raster-direct-8-l2": ("gray", dict(permutation="raster", rho=20.0)),
    "gray-random-direct-8-l2-w2": ("gray", dict(rho=20.0, seed=3, workers=2)),
    "gray-reshuffle-direct-8-l1": ("gray", dict(rho=20.0, seed=4, metric="l1",
                                                reshuffle_per_level=True)),
    "gray-random-pyramid-8-l2": ("gray", dict(rho=20.0, seed=5, eval_mode="pyramid")),
    "gray-random-direct-4-l2": ("gray", dict(rho=20.0, seed=6, neighborhood=4)),
    "gray-raster-pyramid-4-l1-w2": ("gray", dict(permutation="raster", rho=20.0,
                                                 neighborhood=4, metric="l1",
                                                 eval_mode="pyramid", workers=2)),
    "gray-random-direct-8-pinned": ("gray", dict(rho=20.0, seed=7,
                                                 eval_windows=PINNED_8)),
    "gray-random-direct-4-pinned-w2": ("gray", dict(rho=20.0, seed=8, neighborhood=4,
                                                    eval_windows=PINNED_4, workers=2)),
    "gray-random-direct-8-merge-square": ("gray", dict(rho=20.0, seed=9,
                                                       merge_windows=SQUARE_MERGE)),
    "gray-raster-direct-4-merge-diamond-w2": ("gray", dict(
        permutation="raster", rho=20.0, neighborhood=4, eval_windows=PINNED_4,
        merge_windows=DIAMOND_MERGE, workers=2)),
    "gray-reshuffle-pyramid-8-eval-skip-w2": ("gray", dict(
        rho=20.0, seed=10, reshuffle_per_level=True, eval_mode="pyramid",
        eval_windows=SKIP_EVAL_8, merge_windows=SQUARE_MERGE, workers=2)),
    "rgb-random-direct-8-l2": ("rgb", dict(rho=100.0, seed=11)),
    "rgb-reshuffle-pyramid-8-l1": ("rgb", dict(rho=100.0, seed=12, metric="l1",
                                               eval_mode="pyramid",
                                               reshuffle_per_level=True)),
    "rgb-raster-direct-4-l1-w2": ("rgb", dict(permutation="raster", rho=100.0,
                                              neighborhood=4, metric="l1", workers=2)),
    "rgb-random-pyramid-4-eval-skip": ("rgb", dict(rho=100.0, seed=13, neighborhood=4,
                                                   eval_mode="pyramid",
                                                   eval_windows=SKIP_EVAL_4)),
    "gray16-random-direct-8-l2": ("gray16", dict(rho=1e6, seed=14)),
    "gray16-raster-pyramid-4-l1-w2": ("gray16", dict(permutation="raster", rho=1e6,
                                                     neighborhood=4, metric="l1",
                                                     eval_mode="pyramid", workers=2)),
    "gray16-reshuffle-direct-4-merge-diamond": ("gray16", dict(
        rho=1e6, seed=15, neighborhood=4, reshuffle_per_level=True,
        merge_windows=DIAMOND_MERGE)),
}

GOLDEN = {
    'gray-random-direct-4-l2': '512accefe750bfa4202d4411a70b5211734d705d7549067dca28ea509b0c712f',
    'gray-random-direct-4-pinned-w2': 'ff9fbfde885951b42914ace5c77d3baa72f5f32e09707603a307680ff0714414',
    'gray-random-direct-8-l2-w2': '94f85e170fdc576bdc970b82fa41c416d115527236823abf483fd7b4c27c66f1',
    'gray-random-direct-8-merge-square': 'a1850d788330ebe186aeaa046788bc305c30db8cc8b94bdeb248f905519561fa',
    'gray-random-direct-8-pinned': 'f20ce9d6634fc170730e31d4d21a9de890da0a72838f9145deff876dba6a6626',
    'gray-random-pyramid-8-l2': '055051d636021ceb7f83e328b2a60938afc3a1a653e024a8aa00d85cc2d917b6',
    'gray-raster-direct-4-merge-diamond-w2': '520011d498d255955e67f688979ccbb2ac82bb5fd2c120098825eb523bacaa65',
    'gray-raster-direct-8-l2': 'de97f0c226510dfc5698478777420ff8ad1ebf167370f22454ff46636387efe7',
    'gray-raster-pyramid-4-l1-w2': '024d0cb6c28434d0a724288faf3601d3a4bbe6460ffb946d336f66e05ca9b056',
    'gray-reshuffle-direct-8-l1': '9629173aaadf0e611bcefeb031d82d97456f337d3ff22479975590ee558a2b42',
    'gray-reshuffle-pyramid-8-eval-skip-w2': 'b39b93f42c0bd948213a973612ae1b43cd7ac6b0166855e8eb51c17611e43e5b',
    'gray16-random-direct-8-l2': '0d67b77047851687553481d6a84ed86867e9904ca627b526215604269d89ae8b',
    'gray16-raster-pyramid-4-l1-w2': 'bef95ba9b8d3a88d480ecc40cf55b4f57ce97c4baf6a897cf1bf5bf5b4e6f013',
    'gray16-reshuffle-direct-4-merge-diamond': '8861d5ec222f1232e9d3c4211eb87a7a998c1fdbd2094d5d8aa0184c00116481',
    'rgb-random-direct-8-l2': '21780ff2d9ad4b4162606d368b6295cde5788654969220dcfdd16bd79597c8af',
    'rgb-random-pyramid-4-eval-skip': '610fb7c46c6b9bbc5df0354297860f2b323900d857d5fdaa651ced88f7f4b835',
    'rgb-raster-direct-4-l1-w2': '73f6243641aa1679e89d136d050276e65d34639e7d56f317fdc514b29d1dd1ac',
    'rgb-reshuffle-pyramid-8-l1': '613a2bcf34ca36dfdaee7f2a6f771535814b58a463a3253d036ad8e397e80c89',
}


def segment_outputs(kind: str, fields: dict) -> dict[str, bytes]:
    """The files ``mcvseg segment`` writes, as {name: bytes}."""
    cfg = McvConfig(max_level=LEVELS, **fields)
    cfg.validate()
    seq = run_mcv(make_image(kind), cfg)
    out = {}
    for level, lm in enumerate(seq.levels):
        if int(lm.labels.max(initial=0)) <= 65535:
            out[f"level_{level}.pgm"] = save_labels(lm, "pgm16")
        else:
            out[f"level_{level}.csv"] = save_labels(lm, "csv")
    out["final.ppm"] = save_pnm(colorize(seq.final(), seed=cfg.seed))
    out["stats.txt"] = _stats_text(cfg, seq).encode("ascii")
    return out


def digest(outputs: dict[str, bytes]) -> str:
    """SHA-256 over every output file's name, length and bytes."""
    h = hashlib.sha256()
    for name in sorted(outputs):
        blob = outputs[name]
        h.update(b"%s\0%d\0" % (name.encode(), len(blob)))
        h.update(blob)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_segment_digest(name):
    kind, fields = CASES[name]
    assert digest(segment_outputs(kind, fields)) == GOLDEN[name]


def test_corpus_digests_match_cli(tmp_path):
    """The corpus hashes what the CLI writes, for a config it can express."""
    kind, fields = CASES["gray-random-direct-8-l2-w2"]
    (tmp_path / "in.pnm").write_bytes(save_pnm(make_image(kind)))
    config = dict(fields, max_level=LEVELS)
    (tmp_path / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    assert main(["segment", str(tmp_path / "in.pnm"), str(tmp_path / "out"),
                 "--config", str(tmp_path / "run.cfg")]) == 0
    written = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert written == segment_outputs(kind, fields)


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    {name!r}: {digest(segment_outputs(*CASES[name]))!r},")
