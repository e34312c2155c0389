"""Benchmark of the mcvseg ``segment`` job.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
    python3 perfbench/run.py --record-golden [--workload NAME]

A run generates the workload's input from ``--seed``, then repeats the
segment job (decode, every level, encode all outputs) for ``--seconds``
seconds in this one process and checks each job's output digest against
``golden.json``. ``--trace 0`` reports the end-to-end metrics: set-up
probes in fresh processes alternate with the jobs, and a fixed reference
computation (``hostref.py``) brackets each job and probe, so the times
are host-normalized seconds; the raw wall seconds are printed and
recorded beside them. ``--trace 1`` alternates traced and untraced jobs,
reports the per-layer metrics (raw wall seconds) from the traced ones
and cross-checks the traced counts against the run's ``LevelStats``.

A run pins its process, and with it the threads and set-up probes it
starts, to one CPU. merge-4n-w2 relabels through a per-merge pool of two
threads; with the threads free to wake each other across the CPUs of a
shared host, its wall time follows how the host schedules the other CPU
(measured on a 2-CPU VM: 5.3-11.4 s per job beside a competing process,
2.6-2.8 s pinned). On one CPU the pool's threads still start, run and
join for every merge, so its cost is still measured.

Human-readable lines come first; the last line of standard output is the
result JSON. The full report (metadata, raw samples, checks) is written
to ``.perfbench/`` under the root, spans of a traced run next to it.
``--smoke`` runs the same code on tiny 2-level inputs for the
benchmark's own tests. ``--record-golden`` rewrites the digests in
``golden.json`` (of one workload, or of all) from the current sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy
from hostref import REF_S, host_ref
from job import digest, segment_job
from tracing import Tracer, summarize
from workloads import VARIANTS, WORKLOADS, Workload, generate, smoke

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"
PROBES_PER_JOB = 2
# Units of per-layer values that repeat exactly for one input.
EXACT = ("count", "px", "bytes", "ratio")

E2E_UNITS = {"segment_s": "s", "throughput_px_levels_s": "px_levels/s",
             "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "mrf.evaluate_calls": "count", "mrf.evaluate_s": "s", "mrf.window_px": "px",
    "mrf.evaluate_pct": "%",
    "pyramid.evaluate_calls": "count", "pyramid.evaluate_s": "s", "pyramid.self_s": "s",
    "pyramid.downsample_calls": "count", "pyramid.downsample_s": "s",
    "pyramid.evaluate_pct": "%",
    "partition.relabel_calls": "count", "partition.relabel_s": "s",
    "partition.relabel_px": "px", "partition.canonicalize_s": "s",
    "partition.relabel_pct": "%",
    "driver.level_s": "s", "driver.self_s": "s", "driver.late_s": "s",
    "driver.permutation_s": "s", "driver.visits": "count", "driver.evaluations": "count",
    "driver.accepted": "count", "driver.accept_ratio": "ratio",
    "driver.boundary_ratio": "ratio",
    "pnmio.load_s": "s", "pnmio.encode_s": "s", "pnmio.bytes_out": "bytes",
    "trace.segment_s": "s", "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_mcvseg():
    init = ROOT / "src" / "mcvseg" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"mcvseg sources not found: {init}")
    sys.path.insert(0, str(ROOT / "src"))
    import mcvseg
    import mcvseg.driver
    import mcvseg.pyramid

    if Path(mcvseg.__file__).resolve() != init.resolve():
        raise BenchError(f"imported mcvseg from {mcvseg.__file__}, not {init}")
    return mcvseg


def pin_to_one_cpu() -> tuple[int, int]:
    """Restrict this process to the highest CPU it may run on.

    Return (CPUs allowed before, CPU pinned to).
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    return len(cpus), max(cpus)


def spread(xs: list[float]) -> dict:
    """Median, quartiles and sample count of the raw samples."""
    if len(xs) == 1:
        q1 = q3 = xs[0]
    else:
        q1, _, q3 = statistics.quantiles(xs, n=4)
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs)}


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}


def checked_job(mcvseg, data: bytes, w: Workload, input_seed: int, expected: str | None):
    """Run one job; return (wall seconds, output ok, sequence or None)."""
    t0 = perf_counter()
    try:
        outputs, seq = segment_job(mcvseg, data, w, input_seed)
    except Exception:
        traceback.print_exc()
        return perf_counter() - t0, False, None
    elapsed = perf_counter() - t0
    return elapsed, digest(outputs) == expected, seq


def probe_setup(input_path: Path, w: Workload, input_seed: int, is_smoke: bool) -> float:
    """Seconds from spawning a fresh interpreter to the end of set-up."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), str(input_path),
           w.name, str(input_seed)] + (["smoke"] if is_smoke else [])
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"set-up probe failed with exit code {code}")
    return elapsed


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(mcvseg, w, input_seed, data, expected, deadline, is_smoke, report):
    input_path = OUT / f"{w.name}-{'smoke-' if is_smoke else ''}{input_seed}.pnm"
    input_path.write_bytes(data)
    # Warm the file cache and lazy initialisation; neither is a sample.
    probe_setup(input_path, w, input_seed, is_smoke)
    tiny = smoke(w)
    checked_job(mcvseg, generate(tiny, input_seed), tiny, input_seed, None)

    # Jobs and batches of set-up probes alternate, so both sample the whole
    # run, and a host_ref() call follows each: refs[2i], refs[2i + 1] bracket
    # job i and refs[2i + 1], refs[2i + 2] its probe batch.
    refs = [host_ref()]
    times, batches, failed = [], [], 0
    while True:
        elapsed, ok, _ = checked_job(mcvseg, data, w, input_seed, expected)
        refs.append(host_ref())
        times.append(elapsed)
        failed += not ok
        batches.append([probe_setup(input_path, w, input_seed, is_smoke)
                        for _ in range(PROBES_PER_JOB)])
        refs.append(host_ref())
        if perf_counter() + max(times) + PROBES_PER_JOB * max(map(max, batches)) \
                + 2 * max(refs) > deadline:
            break

    def scale(k: int) -> float:
        # One reference call samples the host's speed for a fraction of a
        # second; the mean of the nearest four follows it better.
        near = refs[max(0, k - 2) : k + 2]
        return REF_S * len(near) / sum(near)

    scaled = [t * scale(2 * i + 1) for i, t in enumerate(times)]
    probes = [p for batch in batches for p in batch]
    scaled_probes = [p * scale(2 * i + 2) for i, batch in enumerate(batches) for p in batch]
    seg = spread(scaled)
    work = w.pixels() * w.config["max_level"]
    summary = {
        "segment_s": seg,
        "throughput_px_levels_s": {"median": work / seg["median"], "q1": work / seg["q3"],
                                   "q3": work / seg["q1"], "n": seg["n"]},
        "setup_s": spread(scaled_probes),
        "peak_rss_mb": spread([peak_rss_mb()]),
    }
    report["wall"] = {"segment_wall_s": spread(times), "setup_wall_s": spread(probes)}
    report["samples"] = {"segment_s": scaled, "setup_s": scaled_probes,
                         "segment_wall_s": times, "setup_wall_s": probes, "host_ref_s": refs}
    return summary, len(times), failed, E2E_UNITS


def layer_metrics(s: dict, segment_s: float) -> dict:
    """Per-layer metric values of one traced job from its span summary."""
    calls, total, own, extra = s["calls"], s["total"], s["self"], s["extra"]
    m = {
        "mrf.evaluate_calls": calls.get("mrf.evaluate", 0),
        "mrf.evaluate_s": total.get("mrf.evaluate", 0.0),
        "mrf.window_px": extra.get("mrf.evaluate", 0),
        "pyramid.evaluate_calls": calls.get("pyramid.evaluate", 0),
        "pyramid.evaluate_s": total.get("pyramid.evaluate", 0.0),
        "pyramid.self_s": own.get("pyramid.evaluate", 0.0) + own.get("pyramid.downsample", 0.0),
        "pyramid.downsample_calls": calls.get("pyramid.downsample", 0),
        "pyramid.downsample_s": total.get("pyramid.downsample", 0.0),
        "partition.relabel_calls": calls.get("partition.relabel", 0),
        "partition.relabel_s": total.get("partition.relabel", 0.0),
        "partition.relabel_px": extra.get("partition.relabel", 0),
        "partition.canonicalize_s": total.get("partition.canonicalize", 0.0),
        "driver.level_s": total.get("driver.level", 0.0),
        "driver.self_s": own.get("driver.level", 0.0),
        "driver.late_s": s["late_s"],
        "driver.permutation_s": total.get("driver.permutation", 0.0),
        "driver.visits": s["visits"],
        "driver.evaluations": s["evaluations"],
        "driver.accepted": s["accepted"],
        "driver.accept_ratio": s["accepted"] / s["evaluations"] if s["evaluations"] else 0.0,
        "driver.boundary_ratio": s["evaluations"] / s["visits"] if s["visits"] else 0.0,
        "pnmio.load_s": total.get("pnmio.load", 0.0),
        "pnmio.encode_s": total.get("pnmio.encode", 0.0),
        "pnmio.bytes_out": extra.get("pnmio.encode", 0),
        "trace.segment_s": segment_s,
    }
    for key in ("mrf.evaluate", "pyramid.evaluate", "partition.relabel"):
        m[f"{key}_pct"] = 100.0 * m[f"{key}_s"] / segment_s
    return m


def count_checks(tracer: Tracer, m: dict, seq, pixels: int) -> list[str]:
    """Mismatches between the traced counts and the run's LevelStats.

    A target that is gone, or that the program no longer calls, is
    reported as untraced or zero and not checked.
    """
    levels = len(seq.stats) - 1
    evaluations = sum(st.evaluations for st in seq.stats[1:])
    accepted = sum(st.accepted for st in seq.stats[1:])
    calls = tracer.calls
    direct = seq.config.eval_mode == "direct"
    expect = [
        ("mcvseg.driver._run_level_inplace", "driver.visits", m["driver.visits"], pixels * levels),
        ("mcvseg.driver._run_level_inplace", "driver.evaluations", m["driver.evaluations"], evaluations),
        ("mcvseg.driver._run_level_inplace", "driver.accepted", m["driver.accepted"], accepted),
        ("mcvseg.driver._relabel", "partition.relabel_calls", m["partition.relabel_calls"], accepted),
        ("mcvseg.driver.evaluate" if direct else "mcvseg.driver.pyramid_evaluate",
         "mrf.evaluate_calls" if direct else "pyramid.evaluate_calls",
         calls.get("mcvseg.driver.evaluate" if direct else "mcvseg.driver.pyramid_evaluate", 0),
         evaluations),
    ]
    bad = []
    for target, name, got, want in expect:
        if calls.get(target, 0) == 0:
            continue
        if got != want:
            bad.append(f"{name}={got} but LevelStats give {want}")
    return bad


def traced_run(mcvseg, w, input_seed, data, expected, deadline, report):
    modules = {"mcvseg": mcvseg, "mcvseg.driver": mcvseg.driver,
               "mcvseg.pyramid": mcvseg.pyramid}
    tracer = Tracer(modules)
    traced, untraced, per_job, mismatches = [], [], [], []
    scaled = {True: [], False: []}
    refs = [host_ref()]
    failed = 0
    while True:
        is_traced = len(traced) <= len(untraced)
        if is_traced:
            tracer.run = len(traced)
            first = len(tracer.spans)
            with tracer:
                elapsed, ok, seq = checked_job(mcvseg, data, w, input_seed, expected)
            traced.append(elapsed)
            if seq is not None:
                m = layer_metrics(summarize(tracer.spans, first), elapsed)
                bad = count_checks(tracer, m, seq, w.pixels())
                if per_job and any(m[k] != per_job[0][k] for k in m if LAYER_UNITS[k] in EXACT):
                    bad.append("traced counts differ between jobs of one input")
                mismatches += bad
                ok = ok and not bad
                per_job.append(m)
        else:
            elapsed, ok, _ = checked_job(mcvseg, data, w, input_seed, expected)
            untraced.append(elapsed)
        refs.append(host_ref())
        scaled[is_traced].append(elapsed * 2 * REF_S / (refs[-2] + refs[-1]))
        failed += not ok
        both = traced and untraced
        if both and perf_counter() + max(traced + untraced) + max(refs) > deadline:
            break
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{report['name']}.spans.json.gz"
    tracer.dump(spans_path)
    if not per_job:
        raise BenchError("no traced job completed")
    summary = {}
    for key, unit in LAYER_UNITS.items():
        if unit in EXACT:
            # Counts repeat exactly across jobs (checked above).
            summary[key] = dict(spread([per_job[0][key]]), n=len(per_job))
        elif key != "trace.overhead_s":
            summary[key] = spread([m[key] for m in per_job])
    # Host-normalized, like the timed run's segment_s.
    overhead = statistics.median(scaled[True]) - statistics.median(scaled[False])
    summary["trace.overhead_s"] = {"median": overhead, "q1": overhead, "q3": overhead, "n": 1}
    report["samples"] = {"traced_segment_wall_s": traced, "untraced_segment_wall_s": untraced,
                         "traced_segment_s": scaled[True], "untraced_segment_s": scaled[False],
                         "host_ref_s": refs, "per_job": per_job}
    report["untraced_targets"] = tracer.missing
    report["count_mismatches"] = mismatches
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    return summary, len(traced) + len(untraced), failed, LAYER_UNITS


def metadata(mcvseg, nproc: int, cpu_pinned: int) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                             capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mcvseg").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "src_sha256": src.hexdigest(), "nproc": nproc,
            "cpu_pinned": cpu_pinned,
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "mcvseg": getattr(mcvseg, "__version__", None)}


def record_golden(mcvseg, names: list[str]) -> None:
    golden = load_golden()
    for mode in ("full", "smoke"):
        for w in (WORKLOADS[n] for n in names):
            wl = smoke(w) if mode == "smoke" else w
            table = golden.setdefault(mode, {})[w.name] = {}
            for variant in range(VARIANTS):
                outputs, _ = segment_job(mcvseg, generate(wl, variant), wl, variant)
                table[str(variant)] = digest(outputs)
                print(mode, w.name, variant, flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny 2-level inputs through the same code path")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json digests from the current sources")
    args = parser.parse_args(argv)
    if not args.record_golden and args.workload is None:
        parser.error("--workload is required")

    started = perf_counter()
    deadline = started + args.seconds
    try:
        mcvseg = import_mcvseg()
        if args.record_golden:
            record_golden(mcvseg, [args.workload] if args.workload else sorted(WORKLOADS))
            return 0
        OUT.mkdir(exist_ok=True)
        nproc, cpu_pinned = pin_to_one_cpu()
        w = WORKLOADS[args.workload]
        mode = "smoke" if args.smoke else "full"
        run_w = smoke(w) if args.smoke else w
        variant = args.seed % VARIANTS
        data = generate(run_w, variant)
        expected = load_golden().get(mode, {}).get(w.name, {}).get(str(variant))
        name = f"{w.name}-{mode}-seed{args.seed}-trace{args.trace}"
        report = {"name": name, "workload": w.name, "mode": mode, "seed": args.seed,
                  "input_variant": variant, "trace": args.trace, "seconds": args.seconds,
                  "image": [run_w.width, run_w.height, run_w.bands],
                  "levels": run_w.config["max_level"], "meta": metadata(mcvseg, nproc, cpu_pinned)}
        if args.trace:
            summary, attempted, failed, units = traced_run(
                mcvseg, run_w, variant, data, expected, deadline, report)
        else:
            summary, attempted, failed, units = timed_run(
                mcvseg, run_w, variant, data, expected, deadline, args.smoke, report)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    report.update(summary=summary, attempted=attempted, failed=failed,
                  failed_frac=failed / attempted, golden_digest=expected,
                  wall_s=perf_counter() - started)
    report_path = OUT / f"{name}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    print(f"{w.name} ({mode}) seed {args.seed}, input variant {variant}: "
          f"{run_w.width}x{run_w.height}x{run_w.bands}, {run_w.config['max_level']} levels")
    for key, st in summary.items():
        print(f"  {key:26s} {st['median']:14.6g} {units[key]:12s} "
              f"q1 {st['q1']:.6g}  q3 {st['q3']:.6g}  n {st['n']}")
    for key, st in report.get("wall", {}).items():
        print(f"  {key:26s} {st['median']:14.6g} {'s':12s} "
              f"q1 {st['q1']:.6g}  q3 {st['q3']:.6g}  n {st['n']}")
    print(f"  {'failed_frac':26s} {failed / attempted:14.6g} {'ratio':12s} "
          f"({failed} of {attempted} jobs)")
    for line in report.get("count_mismatches", []):
        print(f"  count mismatch: {line}")
    for target in report.get("untraced_targets", []):
        print(f"  untraced: {target}")
    print(f"  report: {report_path.relative_to(ROOT)}")
    metrics = {k: {"value": st["median"], "unit": units[k]} for k, st in summary.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
