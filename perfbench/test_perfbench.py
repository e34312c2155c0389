"""Tests of the benchmark itself, on the tiny smoke inputs.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from job import segment_job
from workloads import WORKLOADS, generate, smoke

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def result_line(stdout: str) -> dict:
    out = json.loads(stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct_and_complete(name, trace):
    proc = bench("--workload", name, "--seed", "21", "--seconds", "1", "--trace", trace,
                 "--smoke")
    assert proc.returncode == 0, proc.stderr
    out = result_line(proc.stdout)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    units = run.LAYER_UNITS if trace == "1" else run.E2E_UNITS
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units


@pytest.mark.parametrize("name", ["gray-direct", "color-pyramid"])
def test_job_output_equals_cli_output(name, tmp_path):
    """The job writes what ``mcvseg segment`` writes, for configs the CLI can express."""
    mcvseg = run.import_mcvseg()
    from mcvseg.cli import main as cli_main

    w = smoke(WORKLOADS[name])
    data = generate(w, 4)
    (tmp_path / "in.pnm").write_bytes(data)
    config = dict(w.config, seed=4)
    (tmp_path / "cfg").write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    assert cli_main(["segment", str(tmp_path / "in.pnm"), str(tmp_path / "out"),
                     "--config", str(tmp_path / "cfg")]) == 0
    written = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    outputs, _ = segment_job(mcvseg, data, w, 4)
    assert outputs == written


def test_missing_wrap_target_is_reported_not_fatal(monkeypatch, capsys):
    renamed = tuple((m, "_relabel_renamed" if a == "_relabel" else a, s, x)
                    for m, a, s, x in tracing.TARGETS)
    monkeypatch.setattr(tracing, "TARGETS", renamed)
    assert run.main(["--workload", "merge-4n-w2", "--seed", "2", "--seconds", "1",
                     "--trace", "1", "--smoke"]) == 0
    stdout = capsys.readouterr().out
    out = result_line(stdout)
    assert out["correct"]
    assert out["metrics"]["partition.relabel_calls"]["value"] == 0
    assert out["metrics"]["driver.accepted"]["value"] > 0
    assert "untraced: mcvseg.driver._relabel_renamed" in stdout


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gray-direct",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
