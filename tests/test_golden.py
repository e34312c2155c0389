"""Golden corpus: SHA-256 digests of the ``segment`` output bytes.

Each case runs the segmentation on a small 12x12 image (8-bit gray, 8-bit
RGB or 16-bit gray) for 3 levels and hashes exactly what ``mcvseg segment``
writes: every ``level_*`` label map, ``final.ppm`` and ``stats.txt``. The
config matrix covers the raster, random and reshuffled orders, direct and
pyramid evaluation, 4- and 8-neighborhoods, the l1 and l2 metrics, default,
pinned or overridden eval windows, overridden merge windows, and 1 or 2
workers. Five more cases run 128x128 gray and RGB images for 7 levels,
direct and pyramid, so that windows up to 15x15 and pyramid chains seven
layers deep are covered too; one of them visits in raster order, where
nearly every merge changes the labels the next visit reads.

The ``components`` cases hash what ``mcvseg components`` writes and
prints for four class maps under both neighborhoods: the 257x256 ramp of
the CI run (at the 4-neighborhood every pixel is its own component, so
its 65,792 labels go to CSV), tiles with noise, and a spiral whose two
classes run the length of the map.

The digests were recorded once and must never move: a refactor that
changes one changed the program's output. To print the digests of the
current code, run ``PYTHONPATH=src python3 tests/test_golden.py``.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from mcvseg import (FIVE_NEIGHBORHOOD, ImageBuffer, Lattice, McvConfig,
                    NINE_NEIGHBORHOOD, colorize, dilate, run_mcv, save_labels,
                    save_pnm, square_window)
from mcvseg.cli import _stats_text, main

from oracles import spiral_map

SIDE = 12
LEVELS = 3
LARGE_SIDE = 128
LARGE_LEVELS = 7


def make_image(kind: str, side: int = SIDE) -> ImageBuffer:
    """Four tone quadrants plus Gaussian noise; fixed per kind and side."""
    bands, max_value, sigma = {"gray": (1, 255, 3.0), "rgb": (3, 255, 3.0),
                               "gray16": (1, 65535, 600.0)}[kind]
    rng = np.random.default_rng([side, bands, max_value])
    tones = rng.integers(0, max_value + 1, size=(2, 2, bands))
    half = np.arange(side) * 2 // side
    clean = tones[half[:, None], half[None, :]].astype(np.float64)
    noisy = clean + rng.normal(0.0, sigma, size=clean.shape)
    samples = np.clip(np.rint(noisy), 0, max_value)
    return ImageBuffer(Lattice(side, side), bands, samples, max_value)


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

# name -> (image kind, McvConfig fields), run at LARGE_SIDE for LARGE_LEVELS
LARGE_CASES = {
    "gray128-random-direct-8-l2": ("gray", dict(rho=20.0, seed=16)),
    "gray128-raster-direct-8-l2": ("gray", dict(permutation="raster", rho=20.0)),
    "gray128-random-pyramid-8-l2": ("gray", dict(rho=20.0, seed=17, eval_mode="pyramid")),
    "rgb128-random-direct-8-l2": ("rgb", dict(rho=100.0, seed=18)),
    "rgb128-random-pyramid-8-l1": ("rgb", dict(rho=100.0, seed=19, metric="l1",
                                               eval_mode="pyramid")),
}

def make_classmap(kind: str) -> bytes:
    """A single-band P5 class map; fixed per kind."""
    if kind == "ramp":
        return b"P5\n257 256\n255\n" + bytes(range(256)) * 257
    if kind == "tiles-noise":
        rng = np.random.default_rng([96, 80, 5])
        classes = np.repeat(np.repeat(rng.integers(0, 5, size=(10, 12)), 8, 0), 8, 1)
        noise = rng.random(classes.shape) < 0.15
        classes[noise] = rng.integers(0, 5, size=int(noise.sum()))
    else:
        classes = spiral_map(64) * 200 + 17
    h, w = classes.shape
    return b"P5\n%d %d\n255\n" % (w, h) + classes.astype(np.uint8).tobytes()


# name -> (class map kind, neighborhood, output suffix)
COMPONENT_CASES = {
    "components-ramp-8": ("ramp", 8, "pgm"),
    "components-ramp-4-csv": ("ramp", 4, "csv"),
    "components-tiles-noise-8": ("tiles-noise", 8, "pgm"),
    "components-tiles-noise-4": ("tiles-noise", 4, "pgm"),
    "components-spiral-8": ("spiral", 8, "pgm"),
    "components-spiral-4": ("spiral", 4, "pgm"),
}

GOLDEN = {
    'components-ramp-4-csv': 'b42de42ee102ffd1a7b332151aa378a60a4f6aef06f599d6a3843f916a548964',
    'components-ramp-8': '4bf3d829ea8e30e29bf5ac7e3c7842ea7438babada111d18e10d9dbcb6f74b02',
    'components-spiral-4': '52bd2c5af0202d26a9024f7c215f96186cdcb5054b6a7978eb142561a77e34b7',
    'components-spiral-8': '2645543a964fc2f2ef0e4559dcbb8143f73ca4f2cc81c6385b79bf44618f9fd8',
    'components-tiles-noise-4': '0b372dbc63e1e67328ce72c79ce676d71b18910ba10d55da6f3ac924adbcad77',
    'components-tiles-noise-8': 'f27a3bb496448a8648a210877c3292871702f53a86ba404eed8a9ec4e3bd3f0a',
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
    'gray128-random-direct-8-l2': 'e2d2efb082ccb91f8b4b14809e34682adc7652e40511d946d41199d21fa53bea',
    'gray128-random-pyramid-8-l2': '9911182529be8368f0a87dba51514feab728c268de2a3d891b0aa87c00204d13',
    'gray128-raster-direct-8-l2': 'dbb166d5cd0f33456af0b5efde08d892d14feacf065bd9b6da02e19b9c4d3ed5',
    'gray16-random-direct-8-l2': '0d67b77047851687553481d6a84ed86867e9904ca627b526215604269d89ae8b',
    'gray16-raster-pyramid-4-l1-w2': 'bef95ba9b8d3a88d480ecc40cf55b4f57ce97c4baf6a897cf1bf5bf5b4e6f013',
    'gray16-reshuffle-direct-4-merge-diamond': '8861d5ec222f1232e9d3c4211eb87a7a998c1fdbd2094d5d8aa0184c00116481',
    'rgb-random-direct-8-l2': '21780ff2d9ad4b4162606d368b6295cde5788654969220dcfdd16bd79597c8af',
    'rgb-random-pyramid-4-eval-skip': '610fb7c46c6b9bbc5df0354297860f2b323900d857d5fdaa651ced88f7f4b835',
    'rgb-raster-direct-4-l1-w2': '73f6243641aa1679e89d136d050276e65d34639e7d56f317fdc514b29d1dd1ac',
    'rgb-reshuffle-pyramid-8-l1': '613a2bcf34ca36dfdaee7f2a6f771535814b58a463a3253d036ad8e397e80c89',
    'rgb128-random-direct-8-l2': 'b7d018096fcc0b46a174a1b554858c764b2b36f4b141c0ed60107015fecf6f81',
    'rgb128-random-pyramid-8-l1': '6675a84e2dd0b25105760548526b344fcfeec00fe8a7a9a5fc4399fe660168dd',
}


def segment_outputs(kind: str, fields: dict, side: int = SIDE,
                    levels: int = LEVELS) -> dict[str, bytes]:
    """The files ``mcvseg segment`` writes, as {name: bytes}."""
    cfg = McvConfig(max_level=levels, **fields)
    cfg.validate()
    seq = run_mcv(make_image(kind, side), cfg)
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


def components_outputs(tmp_path, kind: str, neighborhood: int,
                       suffix: str) -> dict[str, bytes]:
    """The label map ``mcvseg components`` writes and the line it prints."""
    src, out = tmp_path / f"{kind}.pgm", tmp_path / f"{kind}-{neighborhood}.{suffix}"
    src.write_bytes(make_classmap(kind))
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        rc = main(["components", str(src), str(out), "--neighborhood", str(neighborhood)])
    assert rc == 0
    return {out.name: out.read_bytes(), "stdout": printed.getvalue().encode()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_segment_digest(name):
    kind, fields = CASES[name]
    assert digest(segment_outputs(kind, fields)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(LARGE_CASES))
def test_large_segment_digest(name):
    kind, fields = LARGE_CASES[name]
    assert digest(segment_outputs(kind, fields, LARGE_SIDE, LARGE_LEVELS)) == GOLDEN[name]


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


@pytest.mark.parametrize("name", sorted(COMPONENT_CASES))
def test_components_digest(name, tmp_path):
    assert digest(components_outputs(tmp_path, *COMPONENT_CASES[name])) == GOLDEN[name]


if __name__ == "__main__":
    import pathlib
    import tempfile
    for name in sorted(CASES):
        print(f"    {name!r}: {digest(segment_outputs(*CASES[name]))!r},")
    for name in sorted(LARGE_CASES):
        outputs = segment_outputs(*LARGE_CASES[name], LARGE_SIDE, LARGE_LEVELS)
        print(f"    {name!r}: {digest(outputs)!r},")
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(COMPONENT_CASES):
            outputs = components_outputs(pathlib.Path(tmp), *COMPONENT_CASES[name])
            print(f"    {name!r}: {digest(outputs)!r},")
