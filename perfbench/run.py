"""Benchmark for anonvox: four seeded workloads driven through ``anonvox.cli.main``.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

A run writes its inputs from the seed in set-up child processes, then repeats
the workload's timed commands in one child process for ``--seconds``, checks
the outputs and prints a detail line and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the second half of the
repetitions is traced and the metrics are the per-layer ones. Work files go
to ``.perfbench_runs/`` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import wave
from dataclasses import asdict
from pathlib import Path

import numpy as np

import layers
import machine
import oracles
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUPS = 3  # set-ups per untraced run; setup_s is their median
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
# one BLAS thread: the load is one process on a shared machine, and a fixed
# thread count fixes the summation order, so outputs repeat byte for byte
BLAS_THREADS = 1
# passes over the trial list that score it: score + eval(oo,oa,aa), or eval alone
SCORING_PASSES = {"desk-pipeline": 4, "stress-eval": 3}


class ChildFailed(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    return env


def run_child(root: Path, run_dir: Path, tag: str, job: dict) -> tuple[float, dict]:
    """Run worker.py on one job; return its wall time and its result."""
    job = dict(job, result=str(run_dir / f"{tag}.result.json"))
    job_path = run_dir / f"{tag}.job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)], cwd=root,
                          env=child_env(root), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise ChildFailed(f"{tag}: worker exited {proc.returncode}: {proc.stderr[-1500:]}")
    return wall, json.loads(Path(job["result"]).read_text(encoding="utf-8"))


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)))
        commit = commit.stdout.strip() or None
    except OSError:
        commit = None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "anonvox").rglob("*.py")):
        src.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": int(child_env(root)["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def input_sizes(name: str, inp: Path, out: Path) -> dict:
    def lines(path):
        return len(oracles.read_columns(path))

    xvecs = {p.stem: oracles.xvec_count(p) for p in inp.glob("*.xvec")}
    used = {"desk-pipeline": ("train", "pool", "enroll", "trial"),
            "stress-eval": ("pool", "enroll", "trial"),
            "stress-anon-utt": ("pool", "enroll")}.get(name, ())
    sizes = {"embeddings": sum(xvecs[k] for k in used), "trials": 0,
             "pool_rows": xvecs.get("pool", 0),
             "anonymized": xvecs["enroll"] if name == "stress-anon-utt" else 0, "audio_s": 0.0}
    if name == "desk-pipeline":
        sizes["trials"] = lines(out / "trials.txt")
    elif name == "stress-eval":
        sizes["trials"] = lines(inp / "trials.txt")
    elif name == "wav-shift":
        with wave.open(str(inp / "in.wav"), "rb") as fh:
            sizes["audio_s"] = fh.getnframes() / fh.getframerate()
    return sizes


def load_reference(name: str, seed: int):
    table = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    return table["records"].get(name, {}).get(str(seed))


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> tuple[dict, dict]:
    """One benchmark run; returns (result line, detail record)."""
    sizes = getattr(WORKLOADS[name], scale)
    run_dir = root / ".perfbench_runs" / f"{name}-{scale}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    base = {"workload": name, "seed": seed, "sizes": asdict(sizes)}
    problems: list[str] = []

    # set-up: untraced ones give setup_s; a traced one gives the synthgen spans
    setup_walls, setup_s, digests, setup_spans = [], [], [], []
    ref = machine.reference_loop()
    for i, traced in enumerate([False, True] if trace else [False] * SETUPS):
        job = dict(base, mode="setup", in_dir=str(run_dir / f"in{i}"), trace=traced)
        wall, res = run_child(root, run_dir, f"setup{i}", job)
        ref_after = machine.reference_loop()
        if any(code != 0 for code in res["exit_codes"]):
            raise ChildFailed(f"setup exit codes {res['exit_codes']}: {res['stderr_tail']}")
        setup_walls.append(wall)
        setup_s.append(machine.scaled(wall, ref, ref_after))
        ref = ref_after
        digests.append(tree_digest(run_dir / f"in{i}"))
        setup_spans = res["spans"] or setup_spans
    if len(set(digests)) != 1:
        problems.append("set-up wrote different inputs for the same seed")
    inp = run_dir / "in0"
    for i in range(1, len(digests)):
        shutil.rmtree(run_dir / f"in{i}")

    # timed repetitions in one process; under --trace 1 untraced, then traced
    out_root = run_dir / "out"
    job = dict(base, mode="op", in_dir=str(inp), out_dir=str(out_root), trace=trace,
               seconds=seconds, min_reps=2 if trace else MIN_REPS)
    _, res = run_child(root, run_dir, "op", job)
    reps = res["reps"]
    for i, r in enumerate(reps):
        r["digest"] = tree_digest(out_root / f"rep{i}")
    try:
        reference = load_reference(name, seed) if scale == "full" else None
        output_problems = oracles.check_outputs(name, sizes, seed, inp, out_root / "rep0",
                                                reference, full=scale == "full")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        output_problems = [f"checks could not read the outputs: {exc!r}"]
    problems += output_problems
    failed = 0
    for i, r in enumerate(reps):
        ok = all(c == 0 for c in r["exit_codes"])
        if not ok:
            problems.append(f"rep{i}: exit codes {r['exit_codes']}: {r['stderr_tail'][-300:]}")
        elif r["digest"] != reps[0]["digest"]:
            problems.append(f"rep{i}: " + ("traced run changed the outputs" if r["traced"]
                                           else "outputs differ between runs"))
            ok = False
        failed += not ok or bool(output_problems)
    sizes_rec = input_sizes(name, inp, out_root / "rep0")
    for i in range(1, len(reps)):
        shutil.rmtree(out_root / f"rep{i}")

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    run_s = statistics.median(r["run_s"] for r in plain)
    detail = {
        "workload": name, "seed": seed, "trace": int(trace), "scale": scale,
        "environment": environment(root, seed), "input_sizes": sizes_rec,
        "samples": {"run_s": [r["run_s"] for r in plain], "wall_s": [r["wall_s"] for r in plain],
                    "setup_s": setup_s, "setup_wall_s": setup_walls,
                    "traced_run_s": [r["run_s"] for r in traced]},
        "peak_rss_mb": res["peak_rss_mb"],
        "problems": problems,
    }
    if trace:
        # one whole repetition, the median by wall time, so its parts add up
        middle = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
        metrics = layers.op_metrics(middle["spans"], middle["wall_s"])
        metrics.update(layers.setup_metrics(setup_spans))
        traced_run_s = statistics.median(r["run_s"] for r in traced)
        metrics["trace.overhead_ratio"] = traced_run_s / run_s - 1.0
        metrics["trials_per_s"] = SCORING_PASSES.get(name, 0) * sizes_rec["trials"] / run_s
        metrics["embeddings_per_s"] = sizes_rec["anonymized"] / run_s
        metrics["rtf"] = run_s / sizes_rec["audio_s"] if sizes_rec["audio_s"] else 0.0
        metrics["fail_ratio"] = failed / len(reps)
        units = {n: u for n, u, _ in layers.PER_LAYER}
        detail["unmeasured"] = sorted(set(res["unmeasured"]) | set(res["uncounted"]))
        reported = sum(metrics[f"{layer}.self_s"] for layer in layers.OP_LAYERS)
        detail["self_time_check_s"] = (reported + metrics["trace.unattributed_s"]
                                       - metrics["trace.run_s"])
    else:
        metrics = {"run_s": run_s, "setup_s": statistics.median(setup_s),
                   "peak_rss_mb": res["peak_rss_mb"]}
        units = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    result = {
        "correct": not problems,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    (run_dir / "result.json").write_text(json.dumps({"result": result, "detail": detail}, indent=1),
                                         encoding="utf-8")
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="anonvox benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "anonvox" / "cli.py").is_file():
        print(f"perfbench: no anonvox sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in modes:
            try:
                result, detail = run_workload(root, name, args.seed, args.seconds, trace)
            except (ChildFailed, subprocess.TimeoutExpired) as exc:
                print(f"perfbench: {name}: {exc}", file=sys.stderr)
                return 2
            print(json.dumps({"detail": detail}))
            for problem in detail["problems"]:
                print(f"perfbench: {name}: {problem}", file=sys.stderr)
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for k, v in result["metrics"].items():
                total["metrics"][k if len(names) == 1 else f"{name}/{k}"] = v
            if len(names) > 1:
                for k, v in result["metrics"].items():
                    print(f"{name:16s} {k:32s} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
