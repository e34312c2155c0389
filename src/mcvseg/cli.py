"""Command-line front end.

Three subcommands: ``segment`` runs the full multilevel segmentation and
writes per-level label maps plus a colorized final view, ``components``
labels the connected components of a class map, and ``rand`` compares two
label maps. All outputs are deterministic for fixed arguments; reruns
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

from .driver import EVAL_MODES, ConfigError, McvConfig, config_updates, run_mcv
from .partition import Partition, components_by_class, rand_index
from .pnmio import _decimal, colorize, load_labels, load_pnm, save_labels, save_pnm
from .pyramid import METRIC_ALIASES


def _int_flag(raw: str) -> int:
    """An integer flag, read by ``pnmio._decimal`` as every integer of a
    config, permutation or label file is: ASCII digits, an optional sign."""
    try:
        return _decimal(raw, "flag")
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None


def _parse_perm_flag(raw: str) -> dict:
    if raw in ("raster", "random"):
        return {"permutation": raw}
    if raw.startswith("file:") and len(raw) > 5:
        return {"permutation": "file", "perm_file": raw[5:]}
    raise ConfigError(f"--perm must be raster, random, or file:<path>, got {raw!r}")


def _config_for(args: argparse.Namespace) -> McvConfig:
    updates: dict = {}
    if args.config is not None:
        updates.update(config_updates(Path(args.config).read_text()))
    for field in fields(McvConfig):
        if getattr(args, field.name, None) is not None:
            updates[field.name] = getattr(args, field.name)
    if args.perm is not None:
        updates.update(_parse_perm_flag(args.perm))
    cfg = replace(McvConfig(), **updates)
    cfg.validate()
    return cfg


def _stats_text(cfg: McvConfig, seq) -> str:
    lat = seq.levels[0].lattice
    lines = [
        f"width={lat.width}",
        f"height={lat.height}",
        f"max_level={cfg.max_level}",
        f"permutation={cfg.permutation}",
        f"seed={cfg.seed}",
        f"neighborhood={cfg.neighborhood}",
        f"rho={cfg.rho:g}",
        f"temperature={cfg.temperature:g}",
        f"metric={METRIC_ALIASES[cfg.metric]}",
        f"eval_mode={cfg.eval_mode}",
        f"workers={cfg.workers}",
        f"reshuffle_per_level={str(cfg.reshuffle_per_level).lower()}",
        f"level_0.regions={seq.stats[0].region_count}",
    ]
    for st in seq.stats[1:]:
        lines.append(f"level_{st.level}.evaluations={st.evaluations}")
        lines.append(f"level_{st.level}.accepted={st.accepted}")
        lines.append(f"level_{st.level}.regions={st.region_count}")
    lines.append(f"final_regions={seq.stats[-1].region_count}")
    return "\n".join(lines) + "\n"


def cmd_segment(args: argparse.Namespace) -> int:
    cfg = _config_for(args)
    image = load_pnm(Path(args.input).read_bytes())

    t0 = time.perf_counter()
    seq = run_mcv(image, cfg)
    elapsed = time.perf_counter() - t0

    outputs: list[tuple[str, bytes]] = []
    for level, lm in enumerate(seq.levels):
        if int(lm.labels.max(initial=0)) <= 65535:
            outputs.append((f"level_{level}.pgm", save_labels(lm, "pgm16")))
        else:
            outputs.append((f"level_{level}.csv", save_labels(lm, "csv")))
    outputs.append(("final.ppm", save_pnm(colorize(seq.final(), seed=cfg.seed))))
    outputs.append(("stats.txt", _stats_text(cfg, seq).encode("ascii")))

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, blob in outputs:
        (outdir / name).write_bytes(blob)
    print(f"{cfg.max_level} levels, {seq.stats[-1].region_count} regions, "
          f"{elapsed:.3f}s, wrote {outdir}")
    return 0


def cmd_components(args: argparse.Namespace) -> int:
    data = Path(args.input).read_bytes()
    image = load_pnm(data)
    if image.bands != 1:
        raise ConfigError("class map must be a single-band PGM")
    classmap = Partition(image.lattice, image.samples[:, :, 0])
    w0 = McvConfig(neighborhood=args.neighborhood).w0
    part = components_by_class(classmap, w0)
    fmt = "csv" if args.output.endswith(".csv") else "pgm16"
    blob = save_labels(part, fmt)
    Path(args.output).write_bytes(blob)
    print(f"{part.block_count()} components")
    return 0


def cmd_rand(args: argparse.Namespace) -> int:
    value = rand_index(load_labels(Path(args.labels1).read_bytes()),
                       load_labels(Path(args.labels2).read_bytes()))
    print(f"{value:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcvseg",
        description="Multilevel region-merging segmentation with an "
                    "autoregressive Markov random field homogeneity test.")
    sub = parser.add_subparsers(dest="command", required=True)

    seg = sub.add_parser("segment", help="segment a PGM/PPM image")
    seg.add_argument("input", help="input image (any PNM flavor)")
    seg.add_argument("outdir", help="output directory (created if missing)")
    seg.add_argument("--config", help="key=value config file; flags override it")
    # Each flag but --perm stores straight into the McvConfig field it sets.
    seg.add_argument("--levels", dest="max_level", metavar="LEVELS", type=_int_flag,
                     help="number of levels to run")
    seg.add_argument("--seed", type=_int_flag, help="seed for the random permutation")
    seg.add_argument("--perm", help="pixel order: raster, random, or file:<path>")
    seg.add_argument("--rho", type=float, help="per-pixel energy acceptance threshold")
    seg.add_argument("--temp", dest="temperature", metavar="TEMP", type=float,
                     help="model temperature")
    seg.add_argument("--metric", choices=sorted(METRIC_ALIASES),
                     help="deviation metric (l2=euclidean, l1=per_band_abs)")
    seg.add_argument("--eval", dest="eval_mode", choices=EVAL_MODES,
                     help="window evaluation mode")
    seg.add_argument("--workers", type=_int_flag,
                     help="recorded in stats.txt; does not change the run")
    seg.add_argument("--neighborhood", type=_int_flag, choices=(4, 8),
                     help="base adjacency")
    seg.set_defaults(func=cmd_segment)

    comp = sub.add_parser("components",
                          help="connected components of a PGM class map")
    comp.add_argument("input", help="single-band PGM whose values are classes")
    comp.add_argument("output", help="label map to write (.csv for CSV, else 16-bit PGM)")
    comp.add_argument("--neighborhood", type=_int_flag, choices=(4, 8), default=8,
                      help="adjacency (default 8)")
    comp.set_defaults(func=cmd_components)

    rnd = sub.add_parser("rand", help="Rand index of two label maps")
    rnd.add_argument("labels1", help="label map (PGM or CSV)")
    rnd.add_argument("labels2", help="label map (PGM or CSV)")
    rnd.set_defaults(func=cmd_rand)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
