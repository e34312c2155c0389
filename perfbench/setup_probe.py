"""One fresh process doing a segment job's set-up, then exiting.

Usage: setup_probe.py ROOT INPUT WORKLOAD INPUT_SEED [smoke]

Imports ``mcvseg`` from ROOT/src, reads and decodes INPUT, validates the
workload's config and builds the visiting permutation (and the pyramid
evaluator in pyramid mode), then prints ``ready``. The parent times the
process from spawn to that line.
"""

import sys
from pathlib import Path


def main(argv: list[str]) -> None:
    root, input_path, name, seed = argv[:4]
    sys.path.insert(0, str(Path(root) / "src"))
    import mcvseg
    from workloads import WORKLOADS, make_config, smoke

    w = WORKLOADS[name]
    if argv[4:] == ["smoke"]:
        w = smoke(w)
    image = mcvseg.load_pnm(Path(input_path).read_bytes())
    cfg = make_config(w, int(seed))
    cfg.validate()
    mcvseg.permutation(cfg.permutation, image.lattice, cfg.seed)
    if cfg.eval_mode == "pyramid":
        mcvseg.make_pyramid_evaluator(cfg.model(), cfg.max_level)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
