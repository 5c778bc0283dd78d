"""Record the reference outputs the benchmark checks every operation against.

Run from the root of a checkout, on the commit whose behaviour is the
reference (the references in ``perfbench/reference/`` come from the seed
code, before any engine change):

    python3 perfbench/record.py

Every entry of both pools, main and held-out, of every workload runs once;
its input document and output digest are stored.  Recording stops with an
error if an operation raises, since a workload must not fail on the seed.
"""

import json
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before numpy loads

# Stored box values keep 12 significant digits: far inside the 1e-9 tolerance.
STORED_DIGITS = 12


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.{STORED_DIGITS}g}")
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    return value


def record(workload: str) -> Path:
    run.import_program()
    import workloads
    pools = {}
    for pool in workloads.POOL_SEEDS:
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            entries = workloads.build_pool(workload, pool, tmp)
            recorded = []
            for e in entries:
                recorded.append({"input": e.doc, "output": _rounded(e.digest(e.run()))})
                print(f"{workload} {pool} entry {e.index}: {recorded[-1]['output'].get('verdict')}",
                      file=sys.stderr)
        pools[pool] = {"pool_seed": workloads.POOL_SEEDS[pool], "entries": recorded}
    path = run.BENCH_DIR / "reference" / f"{workload}.json"
    doc = {"workload": workload, "recorded_at_commit": run.git_commit(),
           "box_rtol": workloads.BOX_RTOL, "pools": pools}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    return path


def main() -> int:
    for workload in run.WORKLOAD_NAMES:
        print(f"wrote {record(workload)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
