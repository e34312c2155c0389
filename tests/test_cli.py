import numpy as np
import pytest

from mcvseg.cli import main
from mcvseg.driver import McvConfig, run_mcv
from mcvseg.geometry import Lattice
from mcvseg.pnmio import ImageBuffer, load_labels, load_pnm, save_pnm


def write_pgm(path, values, max_value=255):
    arr = np.asarray(values, dtype=np.float64)
    lat = Lattice(arr.shape[1], arr.shape[0])
    img = ImageBuffer(lat, 1, arr[:, :, None], max_value)
    path.write_bytes(save_pnm(img))


def read_tree(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def parse_stats(blob):
    out = {}
    for line in blob.decode("ascii").splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


def test_segment_constant_image(tmp_path, capsys):
    src = tmp_path / "flat.pgm"
    write_pgm(src, np.full((8, 8), 120.0))
    outdir = tmp_path / "out"
    rc = main(["segment", str(src), str(outdir), "--levels", "3",
               "--rho", "1.0"])
    assert rc == 0
    names = {p.name for p in outdir.iterdir()}
    assert names == {"level_0.pgm", "level_1.pgm", "level_2.pgm",
                     "level_3.pgm", "final.ppm", "stats.txt"}

    final = load_pnm((outdir / "final.ppm").read_bytes())
    assert final.bands == 3
    flat = final.samples.reshape(-1, 3)
    assert np.all(flat == flat[0])  # one region, one color

    stats = parse_stats((outdir / "stats.txt").read_bytes())
    assert stats["width"] == "8"
    assert stats["max_level"] == "3"
    assert stats["rho"] == "1"
    assert stats["level_0.regions"] == "64"
    assert int(stats["final_regions"]) >= 1
    assert "regions" in capsys.readouterr().out


def test_segment_rerun_is_byte_identical(tmp_path):
    src = tmp_path / "img.pgm"
    rng = np.random.default_rng(3)
    write_pgm(src, rng.integers(0, 4, size=(10, 10)).astype(np.float64) * 50)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = [str(src), "--levels", "3", "--seed", "7", "--rho", "2.0"]
    assert main(["segment", args[0], str(out1)] + args[1:]) == 0
    assert main(["segment", args[0], str(out2)] + args[1:]) == 0
    assert read_tree(out1) == read_tree(out2)


def test_segment_writes_csv_past_65535_labels(tmp_path):
    """Level 0 of a 257x256 image has 65792 labels, past 16-bit PGM, so
    it is written as CSV; level 1, whose flat top rows merge, as PGM. A
    rerun writes the same bytes."""
    noise = np.random.default_rng(0).integers(0, 256, size=(256, 257), dtype=np.uint8)
    noise[:4] = 0
    src = tmp_path / "big.pgm"
    src.write_bytes(b"P5\n257 256\n255\n" + noise.tobytes())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["segment", str(src), str(out), "--levels", "1", "--perm", "raster"]) == 0
    tree = read_tree(out1)
    assert set(tree) == {"level_0.csv", "level_1.pgm", "final.ppm", "stats.txt"}
    assert tree == read_tree(out2)
    cfg = McvConfig(max_level=1, permutation="raster")
    want = run_mcv(load_pnm(src.read_bytes()), cfg).levels[0]
    assert load_labels(tree["level_0.csv"]) == want


@pytest.mark.parametrize("bands, max_value", [(1, 255), (3, 65535)], ids=["gray", "color-16bit"])
def test_segment_plain_and_raw_inputs_give_identical_trees(tmp_path, bands, max_value):
    """P2 and P5 (P3 and P6) encodings of one image decode to the same
    samples, so ``segment`` writes the same bytes for both."""
    rng = np.random.default_rng(5)
    blocks = rng.integers(0, 4, size=(3, 3, bands)) * (max_value // 4)
    samples = np.repeat(np.repeat(blocks, 4, 0), 4, 1) + rng.integers(0, 3, size=(12, 12, bands))
    img = ImageBuffer(Lattice(12, 12), bands, samples, max_value)
    trees = []
    for plain in (True, False):
        src = tmp_path / f"img-{plain}.pnm"
        src.write_bytes(save_pnm(img, plain=plain))
        out = tmp_path / f"out-{plain}"
        assert main(["segment", str(src), str(out), "--levels", "3", "--seed", "2",
                     "--rho", str(max_value / 4)]) == 0
        trees.append(read_tree(out))
    assert trees[0] == trees[1]
    assert int(parse_stats(trees[0]["stats.txt"])["final_regions"]) < 144


def test_segment_missing_input(tmp_path, capsys):
    outdir = tmp_path / "out"
    rc = main(["segment", str(tmp_path / "nope.pgm"), str(outdir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
    assert not outdir.exists()


def test_segment_header_larger_than_file(tmp_path, capsys):
    src = tmp_path / "huge.pgm"
    src.write_bytes(b"P2\n100000 100000\n255\n1 2 3\n")
    outdir = tmp_path / "out"
    assert main(["segment", str(src), str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "truncated raster" in err
    assert len(err.strip().splitlines()) == 1
    assert not outdir.exists()


def test_segment_width_past_the_int_digit_limit(tmp_path, capsys):
    src = tmp_path / "wide.pgm"
    src.write_bytes(b"P2\n" + b"1" * 5000 + b" 1\n255\n1\n")
    outdir = tmp_path / "out"
    assert main(["segment", str(src), str(outdir)]) == 1
    err = capsys.readouterr().err
    assert err == "error: integer for width too long: 5000 digits (byte offset 3)\n"
    assert not outdir.exists()


def test_segment_config_file_with_flag_override(tmp_path):
    src = tmp_path / "img.pgm"
    write_pgm(src, np.full((6, 6), 30.0))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_level = 2\nrho = 0.25\npermutation = raster\n")
    outdir = tmp_path / "out"
    rc = main(["segment", str(src), str(outdir), "--config", str(cfg),
               "--rho", "4.0"])
    assert rc == 0
    stats = parse_stats((outdir / "stats.txt").read_bytes())
    assert stats["max_level"] == "2"       # from the file
    assert stats["rho"] == "4"             # flag wins
    assert stats["permutation"] == "raster"


def test_segment_bad_config_key(tmp_path, capsys):
    src = tmp_path / "img.pgm"
    write_pgm(src, np.zeros((4, 4)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("speed = 11\n")
    rc = main(["segment", str(src), str(tmp_path / "out"), "--config", str(cfg)])
    assert rc == 1
    assert "speed" in capsys.readouterr().err


def test_segment_rejects_nan_rho(tmp_path, capsys):
    src = tmp_path / "img.pgm"
    write_pgm(src, np.zeros((4, 4)))
    outdir = tmp_path / "out"
    rc = main(["segment", str(src), str(outdir), "--rho", "nan"])
    assert rc == 1
    assert "rho" in capsys.readouterr().err
    assert not outdir.exists()


def test_segment_permutation_file(tmp_path):
    src = tmp_path / "img.pgm"
    write_pgm(src, np.full((4, 4), 200.0))
    perm = tmp_path / "order.txt"
    perm.write_text("\n".join(str(i) for i in reversed(range(16))) + "\n")
    outdir = tmp_path / "out"
    rc = main(["segment", str(src), str(outdir), "--levels", "2",
               "--rho", "1.0", "--perm", f"file:{perm}"])
    assert rc == 0
    stats = parse_stats((outdir / "stats.txt").read_bytes())
    assert stats["permutation"] == "file"


def test_segment_permutation_index_beyond_int64(tmp_path, capsys):
    src = tmp_path / "img.pgm"
    write_pgm(src, np.zeros((2, 2)))
    perm = tmp_path / "order.txt"
    perm.write_text("0\n1\n99999999999999999999\n3\n")
    outdir = tmp_path / "out"
    rc = main(["segment", str(src), str(outdir), "--perm", f"file:{perm}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 3" in err
    assert len(err.strip().splitlines()) == 1
    assert not outdir.exists()


@pytest.mark.parametrize("raster", [None, b"P2\n100000 100000\n255\n1 2 3\n"],
                         ids=["missing", "huge-header"])
def test_segment_checks_config_before_reading_input(tmp_path, capsys, raster):
    src = tmp_path / "img.pgm"
    if raster is not None:
        src.write_bytes(raster)
    rc = main(["segment", str(src), str(tmp_path / "out"), "--levels", "0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "max_level" in err
    assert len(err.strip().splitlines()) == 1


def test_segment_bad_perm_flag(tmp_path, capsys):
    src = tmp_path / "img.pgm"
    write_pgm(src, np.zeros((4, 4)))
    rc = main(["segment", str(src), str(tmp_path / "out"), "--perm", "spiral"])
    assert rc == 1
    assert "perm" in capsys.readouterr().err


def test_components_two_halves(tmp_path, capsys):
    src = tmp_path / "classes.pgm"
    vals = np.zeros((4, 6))
    vals[:, 3:] = 1.0
    write_pgm(src, vals, max_value=255)
    out = tmp_path / "labels.pgm"
    rc = main(["components", str(src), str(out)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "2 components"
    lm = load_labels(out.read_bytes())
    expected = np.zeros((4, 6), dtype=np.int32)
    expected[:, 3:] = 1
    assert np.array_equal(lm.labels, expected)


def test_components_csv_output(tmp_path):
    src = tmp_path / "classes.pgm"
    write_pgm(src, np.zeros((2, 2)))
    out = tmp_path / "labels.csv"
    assert main(["components", str(src), str(out)]) == 0
    assert out.read_bytes() == b"0,0\n0,0\n"


def test_components_rejects_color_input(tmp_path, capsys):
    src = tmp_path / "color.ppm"
    lat = Lattice(2, 2)
    img = ImageBuffer(lat, 3, np.zeros((2, 2, 3)), 255)
    src.write_bytes(save_pnm(img))
    rc = main(["components", str(src), str(tmp_path / "out.pgm")])
    assert rc == 1
    assert "single-band" in capsys.readouterr().err


def test_rand_one_third(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("0,0,1\n")
    b.write_text("0,1,1\n")
    assert main(["rand", str(a), str(b)]) == 0
    assert capsys.readouterr().out.strip() == "0.333333"


def test_rand_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    a.write_text("0,1\n2,3\n")
    assert main(["rand", str(a), str(a)]) == 0
    assert capsys.readouterr().out.strip() == "1.000000"


def test_rand_dimension_mismatch(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("0,1\n")
    b.write_text("0,1,2\n")
    rc = main(["rand", str(a), str(b)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_rand_label_outside_int32(tmp_path, capsys):
    big = tmp_path / "big.csv"
    ok = tmp_path / "ok.csv"
    big.write_text("0,3000000000\n")
    ok.write_text("0,1\n")
    assert main(["rand", str(big), str(ok)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "labels must lie in" in err
    assert "Traceback" not in err
