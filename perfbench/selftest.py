"""Self-test of the benchmark: a tiny run of every workload.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For each workload it checks that an untraced run prints every end-to-end
metric of BENCHMARK.json with its unit, that a traced run does the same for
every per-layer metric, and that corrupting the reference entry of a run's
first operation makes that operation fail the check.  Runs go one at a time,
each in its own interpreter; the corruption check runs in this one.  Exit code
0 means every check held.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SEED = 1


def bench(workload: str, trace: int, seconds: float):
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_metrics(workload: str, trace: int, spec: list[dict]) -> list[str]:
    table, result = bench(workload, trace, seconds=1)
    problems = []
    if set(result["metrics"]) != {m["name"] for m in spec}:
        problems.append(f"{workload} trace {trace}: metric names differ from BENCHMARK.json")
    for m in spec:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"{workload} trace {trace}: {m['name']} is {got}")
        if not any(ln.split()[:1] == [m["name"]] and ln.split()[-1] == m["unit"] for ln in table):
            problems.append(f"{workload} trace {trace}: no table line for {m['name']} [{m['unit']}]")
    if not result["correct"] or result["failed"]:
        problems.append(f"{workload} trace {trace}: {result['failed']} ops failed")
    return problems


def check_corruption(workload: str, work_dir: Path) -> list[str]:
    """The first op issued passes its reference, and fails it once corrupted."""
    import workloads
    work_dir.mkdir(parents=True)
    entries = workloads.build_pool(workload, "main", str(work_dir))
    refs = run.load_reference(workload, "main", entries)
    first = next(workloads.issue_order(entries, SEED))
    ref = refs[first]
    if not run.run_op(workloads, entries[first], ref, None, 0, False).ok:
        return [f"{workload}: entry {first} fails its intact reference"]
    if ref.get("boxes"):
        # A shift far above the 1e-9 tolerance but far below any visible change.
        ref["boxes"][0]["lo"][0][0] += 1e-6 * max(ref["boxes"][0]["scale"][0], 1.0)
    else:
        ref["nlin"] = ["corrupted", 0]
    if run.run_op(workloads, entries[first], ref, None, 1, False).ok:
        return [f"{workload}: corrupted reference entry {first} went unnoticed"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.import_program()
    scratch = run.WORK_ROOT / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    problems = []
    try:
        for workload in run.WORKLOAD_NAMES:
            problems += check_metrics(workload, 0, spec["end_to_end"])
            problems += check_metrics(workload, 1, spec["per_layer"])
            problems += check_corruption(workload, scratch / workload)
            print(f"{workload}: checked", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
