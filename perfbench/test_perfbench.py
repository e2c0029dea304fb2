"""The benchmark's own tests. Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import layers
import run
from spans import Recorder, self_times
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HELD_OUT_SEED = 9973  # never used while the benchmark was written or tuned


def test_self_times_of_a_fake_call_tree():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 8.0, 9.0, 12.0, 15.0])
    rec = Recorder(clock=lambda: next(ticks))
    leaf = rec.wrap(lambda: None, "warp_poles", "formant")
    mid = rec.wrap(lambda: (leaf(), leaf()), "render_report", "harness")
    root = rec.wrap(lambda argv: (mid(), leaf()), "main", "cli")
    root(["eval"])

    assert [s["name"] for s in rec.spans] == ["main.eval", "render_report", "warp_poles",
                                              "warp_poles", "warp_poles"]
    assert [s["parent"] for s in rec.spans] == [-1, 0, 1, 1, 0]
    assert self_times(rec.spans) == [5.0, 4.0, 2.0, 1.0, 3.0]

    m = layers.op_metrics(rec.spans, run_s=16.0)
    assert (m["cli.self_s"], m["harness.self_s"], m["formant.self_s"]) == (5.0, 4.0, 6.0)
    assert (m["cli.main_s.eval"], m["harness.render_s"], m["formant.warp_s"]) == (15.0, 7.0, 6.0)
    assert m["trace.unattributed_s"] == 1.0
    assert sum(m[f"{layer}.self_s"] for layer in layers.OP_LAYERS) + 1.0 == m["trace.run_s"]


def test_self_time_counts_overlapping_children_once():
    spans = [
        {"start": 0.0, "end": 10.0, "parent": -1},
        {"start": 1.0, "end": 4.0, "parent": 0},
        {"start": 3.0, "end": 6.0, "parent": 0},  # overlaps its sibling
        {"start": 8.0, "end": 12.0, "parent": 0},  # runs past its parent
    ]
    assert self_times(spans) == [10.0 - 5.0 - 2.0, 3.0, 3.0, 4.0]


def test_a_missing_traced_function_is_reported_not_fatal():
    code = (
        "import sys; sys.path.insert(0, 'perfbench')\n"
        "import anonvox.cli, anonvox.embeddings, anonvox\n"
        "for m in (anonvox.cli, anonvox.embeddings, anonvox): del m.make_trials\n"
        "from spans import Recorder, install\n"
        "print(install(Recorder()))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                          env=run.child_env(ROOT), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['make_trials']"


@pytest.mark.parametrize("name", ["desk-pipeline", "wav-shift"])
def test_set_up_is_deterministic_per_seed(name, tmp_path):
    digests = []
    for i, seed in enumerate((5, 5, 6)):
        job = {"workload": name, "seed": seed, "sizes": asdict(WORKLOADS[name].tiny),
               "mode": "setup", "in_dir": str(tmp_path / f"in{i}"), "trace": False}
        run.run_child(ROOT, tmp_path, f"setup{i}", job)
        digests.append(run.tree_digest(tmp_path / f"in{i}"))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_scale_run_passes_its_checks(name):
    plain, detail = run.run_workload(ROOT, name, 11, 0.2, trace=False, scale="tiny")
    assert plain["correct"], detail["problems"]
    assert plain["failed"] == 0 and plain["attempted"] >= run.MIN_REPS
    assert set(plain["metrics"]) == {"run_s", "setup_s", "peak_rss_mb"}
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    traced, detail = run.run_workload(ROOT, name, 11, 0.2, trace=True, scale="tiny")
    assert traced["correct"], detail["problems"]
    assert set(traced["metrics"]) == {n for n, _, _ in layers.PER_LAYER}
    assert detail["unmeasured"] == []
    assert abs(detail["self_time_check_s"]) < 1e-9
    calls = {"desk-pipeline": 5, "stress-eval": 3, "stress-anon-utt": 1, "wav-shift": 0}[name]
    assert traced["metrics"]["anonymize.corpus.calls"]["value"] == calls


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == {"run_s", "setup_s", "peak_rss_mb"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "wav-shift",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_held_out_seed_runs_green_at_full_scale(name):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", name,
                           "--seed", str(HELD_OUT_SEED), "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
