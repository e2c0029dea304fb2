"""Write perfbench/reference.json: the ``--records`` lines of the eval-based
workloads for a range of seeds, which later runs must reproduce within
``oracles.RECORD_TOL``. Each seed's outputs must first pass every other check.

Usage (from the repository root, at the commit that sets the reference):

    python3 perfbench/make_reference.py --seeds 0-31
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import asdict
from pathlib import Path

import oracles
import run
from workloads import WORKLOADS

EVAL_WORKLOADS = ("desk-pipeline", "stress-eval")


def records_for(root: Path, name: str, seed: int) -> list[str]:
    sizes = WORKLOADS[name].full
    run_dir = root / ".perfbench_runs" / f"reference-{name}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    base = {"workload": name, "seed": seed, "sizes": asdict(sizes), "trace": False}
    inp, out = run_dir / "in", run_dir / "out"
    run.run_child(root, run_dir, "setup", dict(base, mode="setup", in_dir=str(inp)))
    _, res = run.run_child(root, run_dir, "op", dict(base, mode="op", in_dir=str(inp),
                                                       out_dir=str(out), seconds=0, min_reps=1))
    problems = oracles.check_outputs(name, sizes, seed, inp, out / "rep0", None, full=True)
    if problems or any(code != 0 for code in res["reps"][0]["exit_codes"]):
        raise SystemExit(f"{name} seed {seed}: {problems or res['reps'][0]['stderr_tail']}")
    lines = (out / "rep0" / "records.txt").read_text(encoding="utf-8").splitlines()
    shutil.rmtree(run_dir)
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    root = Path.cwd()
    table = {name: {str(s): records_for(root, name, s) for s in range(first, last + 1)}
             for name in EVAL_WORKLOADS}
    path = run.HERE / "reference.json"
    path.write_text(json.dumps({"records": table}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
