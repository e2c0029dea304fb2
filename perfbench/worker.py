"""Child process of the benchmark: writes one workload's inputs, or runs its
timed commands repeatedly, through ``anonvox.cli.main`` in this process.

Usage: python3 perfbench/worker.py JOB.json   (run.py writes the job file)

The job names the mode (``setup`` or ``op``), the workload, its sizes, the
seed, the input and output directories, where to write the result JSON and,
for ``op``, how long to repeat and whether to trace. A traced op first
repeats untraced, then installs the span wrappers and repeats traced.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

import machine
import workloads
from spans import Recorder, install


def _run_cli(main, argvs) -> tuple[list[int], str, str]:
    codes = []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for argv in argvs:
            codes.append(main(argv))
    return codes, out.getvalue(), err.getvalue()


def _repeat(cli, job, sizes, seconds, min_reps, first, recorder=None) -> list[dict]:
    """Run the timed commands until ``seconds`` pass and ``min_reps`` are done."""
    reps = []
    ref = machine.reference_loop()
    start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start < seconds:
        out = Path(job["out_dir"]) / f"rep{first + len(reps)}"
        out.mkdir(parents=True)
        argvs = workloads.op_commands(job["workload"], sizes, Path(job["in_dir"]), out)
        if recorder:
            recorder.spans = []
        gc.collect()  # every repetition starts from a collected heap, as a fresh process would
        t0 = time.perf_counter()
        codes, stdout, err = _run_cli(cli.main, argvs)
        wall = time.perf_counter() - t0
        ref_after = machine.reference_loop()
        (out / "stdout.txt").write_text(stdout, encoding="utf-8")
        reps.append({"wall_s": wall, "run_s": machine.scaled(wall, ref, ref_after),
                     "exit_codes": codes, "stderr_tail": err[-1000:], "traced": bool(recorder),
                     "spans": recorder.spans if recorder else None})
        ref = ref_after
    return reps


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    name, seed = job["workload"], job["seed"]
    sizes = workloads.Sizes(**job["sizes"])

    from anonvox import cli

    result: dict = {}
    if job["mode"] == "setup":
        recorder = Recorder() if job["trace"] else None
        if recorder:
            install(recorder)
        inp = Path(job["in_dir"])
        inp.mkdir(parents=True, exist_ok=True)
        codes, _, err = _run_cli(cli.main, workloads.setup_commands(name, sizes, seed, inp))
        workloads.write_own_inputs(name, sizes, seed, inp)
        result.update(exit_codes=codes, stderr_tail=err[-2000:],
                      spans=recorder.spans if recorder else None)
    else:
        seconds, min_reps = job["seconds"], job["min_reps"]
        if job["trace"]:
            reps = _repeat(cli, job, sizes, seconds / 2, min_reps, 0)
            recorder = Recorder()
            result["unmeasured"] = install(recorder)
            reps += _repeat(cli, job, sizes, seconds / 2, min_reps, len(reps), recorder)
            result["uncounted"] = sorted(recorder.uncounted)
        else:
            reps = _repeat(cli, job, sizes, seconds, min_reps, 0)
        result["reps"] = reps
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
