"""The ``segment`` job: what ``mcvseg segment`` does, minus the disk writes.

Decode the PNM input, run every level, and encode the per-level label
maps, the colorized final view and ``stats.txt``. The job calls the
public ``mcvseg`` API instead of the CLI, because one workload pins its
evaluation windows, which no CLI flag expresses. Pipeline functions are
looked up on the package at call time, so the traced run can wrap them.
"""

from __future__ import annotations

import hashlib

from workloads import Workload, make_config

_METRIC_NAMES = {"l2": "euclidean", "l1": "per_band_abs"}


def stats_text(cfg, seq) -> str:
    """``stats.txt`` in the format ``mcvseg segment`` writes it."""
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
        f"metric={_METRIC_NAMES.get(cfg.metric, cfg.metric)}",
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


def segment_job(mcvseg, data: bytes, w: Workload, input_seed: int):
    """Run one segment job; return ({file name: bytes}, PartitionSequence)."""
    image = mcvseg.load_pnm(data)
    cfg = make_config(w, input_seed)
    cfg.validate()
    seq = mcvseg.run_mcv(image, cfg)
    outputs = {}
    for level, lm in enumerate(seq.levels):
        if int(lm.labels.max(initial=0)) <= 65535:
            outputs[f"level_{level}.pgm"] = mcvseg.save_labels(lm, "pgm16")
        else:
            outputs[f"level_{level}.csv"] = mcvseg.save_labels(lm, "csv")
    outputs["final.ppm"] = mcvseg.save_pnm(mcvseg.colorize(seq.final(), seed=cfg.seed))
    outputs["stats.txt"] = stats_text(cfg, seq).encode("ascii")
    return outputs, seq


def digest(outputs: dict[str, bytes]) -> str:
    """SHA-256 over every output file's name, length and bytes."""
    h = hashlib.sha256()
    for name in sorted(outputs):
        blob = outputs[name]
        h.update(b"%s\0%d\0" % (name.encode(), len(blob)))
        h.update(blob)
    return h.hexdigest()
