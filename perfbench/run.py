"""Closed-loop benchmark of rdvsafe: one operation at a time, for a fixed time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mission --seed 1 --seconds 20 --trace 0

``--trace 0`` times the operations untouched and prints the end-to-end
metrics; ``--trace 1`` runs each operation twice, once untraced and once with
the layer wrappers of ``tracer.py`` installed, and prints the per-layer
metrics.  Every output is checked against the reference recorded in
``perfbench/reference/``.  A table of every metric goes to standard output,
and the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The run record, per-operation times and (when
traced) the spans are written to ``.perfbench_out/``.  See README.md.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

# Modules that load numpy (workloads, tracer, yardstick) are imported only
# after import_program(), so a set-up probe counts numpy's import as part of
# importing rdvsafe.

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("mission", "abort_windows", "bounce", "falsify")
PROBE_TIMEOUT_S = 120
SETUP_RUNS = 3          # fresh interpreters timed per run; the median is reported
MAX_ERRORS_SHOWN = 5


class SetupError(RuntimeError):
    """The benchmark cannot run here; it exits without a result."""


@dataclass
class Op:
    entry: int
    traced: bool
    s: float
    ok: bool
    steps: int = 0
    rendezvous_pipes: int = 0
    rendezvous_steps: int = 0
    passive_pipes: int = 0
    passive_steps: int = 0
    t0: float = 0.0         # perf_counter at the start
    y: float = 0.0          # mean yardstick seconds while the op ran
    nominal_s: float = 0.0  # s less the yardstick time inside, at nominal speed


def parse_args(argv):
    p = argparse.ArgumentParser(description="Closed-loop benchmark of rdvsafe.")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1, help="order in which the pool is issued")
    p.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pool", choices=("main", "heldout"), default="main",
                   help="input pool; heldout checks a claim on inputs it was not tuned on")
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: set up once, print the set-up times, exit")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up


def import_program() -> float:
    """Import rdvsafe from this checkout's src/ and return the seconds taken."""
    if not (SRC / "rdvsafe" / "__init__.py").is_file():
        raise SetupError(f"no rdvsafe sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import rdvsafe
    import rdvsafe.cli  # noqa: F401
    elapsed = perf_counter() - t0
    if Path(rdvsafe.__file__).resolve().parent != (SRC / "rdvsafe").resolve():
        raise SetupError(f"imported rdvsafe from {rdvsafe.__file__}, not from {SRC}")
    return elapsed


def set_up(workload: str, pool: str, work_dir: Path):
    """Import the program and generate the inputs: what precedes the first op."""
    import_s = import_program()
    t0 = perf_counter()
    import workloads
    work_dir.mkdir(parents=True, exist_ok=True)
    entries = workloads.build_pool(workload, pool, str(work_dir))
    return workloads, entries, import_s, perf_counter() - t0


def probe_setup(args) -> list[dict]:
    """Time set-up in fresh interpreters, one after another, each followed by
    the import baseline that scales it to nominal seconds."""
    import yardstick
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
           "--workload", args.workload, "--pool", args.pool]
    samples = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                total = perf_counter() - t0
                proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise SetupError("set-up probe did not finish") from None
        if proc.returncode != 0 or not line:
            raise SetupError(f"set-up probe failed with exit code {proc.returncode}")
        parts = json.loads(line)
        samples.append({"setup_s": total, **parts,
                        "baseline_s": yardstick.import_baseline(ROOT)})
    return samples


def run_probe(args, work_dir: Path) -> None:
    _, _, import_s, inputs_s = set_up(args.workload, args.pool, work_dir)
    print(json.dumps({"import_s": import_s, "inputs_s": inputs_s}), flush=True)


def load_reference(workload: str, pool: str, entries) -> list[dict]:
    path = BENCH_DIR / "reference" / f"{workload}.json"
    if not path.is_file():
        raise SetupError(f"no reference at {path}")
    with open(path, encoding="utf-8") as fh:
        recorded = json.load(fh)["pools"][pool]["entries"]
    inputs = [e.doc for e in entries]
    if json.loads(json.dumps(inputs)) != [r["input"] for r in recorded]:
        raise SetupError(f"{path} was recorded for other inputs; record it again")
    return [r["output"] for r in recorded]


# ---------------------------------------------------------------------------
# measurement


def run_op(wl, entry, ref: dict, tracer, op_id: int, traced: bool) -> Op:
    if traced:
        tracer.op = op_id
        tracer.install()
    t0 = perf_counter()
    try:
        result = entry.run()
    except Exception:
        elapsed = perf_counter() - t0
        print(f"op {op_id} (entry {entry.index}) raised:\n{traceback.format_exc()}",
              file=sys.stderr)
        return Op(entry.index, traced, elapsed, ok=False, t0=t0)
    else:
        elapsed = perf_counter() - t0
    finally:
        if traced:
            tracer.uninstall()
    try:
        got = entry.digest(result)
        errors = wl.compare(got, ref)
    except Exception:
        got, errors = {}, [traceback.format_exc()]
    if errors:
        shown = "\n  ".join(errors[:MAX_ERRORS_SHOWN])
        print(f"op {op_id} (entry {entry.index}) differs from the reference:\n  {shown}",
              file=sys.stderr)
    pipes = got.get("pipes", [])
    return Op(
        entry.index, traced, elapsed, ok=not errors, steps=got.get("steps", 0),
        rendezvous_pipes=sum(1 for m, _ in pipes if m != "passive"),
        rendezvous_steps=sum(n for m, n in pipes if m != "passive"),
        passive_pipes=sum(1 for m, _ in pipes if m == "passive"),
        passive_steps=sum(n for m, n in pipes if m == "passive"),
        t0=t0,
    )


def measure(wl, entries, refs, seed: int, seconds: float, tracer) -> list[Op]:
    """Issue ops one at a time until the time is up; traced runs pair each op."""
    ops: list[Op] = []
    deadline = perf_counter() + seconds
    for n, idx in enumerate(wl.issue_order(entries, seed)):
        if ops and perf_counter() >= deadline:
            break
        # Traced runs do each input untraced and traced, alternating which goes first.
        modes = (False,) if tracer is None else ((False, True) if n % 2 == 0 else (True, False))
        for traced in modes:
            ops.append(run_op(wl, entries[idx], refs[idx], tracer, len(ops), traced))
    return ops


# ---------------------------------------------------------------------------
# metrics


def tail(times: list[float]):
    """Highest percentile with at least ten ops beyond it: (percentile, seconds)."""
    n = len(times)
    if n < 11:
        return None
    return int(100 * (n - 10) / n), sorted(times)[n - 11]


def end_to_end(ops: list[Op], setups: list[dict]) -> dict:
    """Gated metrics; times are in nominal seconds."""
    import yardstick
    plain = [op for op in ops if not op.traced]
    times = [op.nominal_s for op in plain]
    return {
        "op_s.p50": (statistics.median(times), "s"),
        "steps_per_s": (sum(op.steps for op in plain) / sum(times), "steps/s"),
        "setup_s": (statistics.median(s["setup_s"] * yardstick.IMPORT_NOMINAL_S / s["baseline_s"]
                                      for s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# Per-layer metrics in report order: (name, unit, source, layer, field).
# Values are per traced operation.  Sources:
#   tally   a tracer tally of the layer (busy_s, self_s, calls, or a counter)
#   ratio   a tracer counter of the layer divided by its calls
#   report  a count read from the returned reports (Op field)
PER_LAYER = (
    ("verifier.rendezvous.busy_s", "s/op", "tally", "verifier.rendezvous", "busy_s"),
    ("verifier.rendezvous.self_s", "s/op", "tally", "verifier.rendezvous", "self_s"),
    ("verifier.rendezvous.pipes", "pipes/op", "report", "verifier.rendezvous", "rendezvous_pipes"),
    ("verifier.rendezvous.steps", "steps/op", "report", "verifier.rendezvous", "rendezvous_steps"),
    ("verifier.classify.calls", "calls/op", "tally", "verifier.classify", "calls"),
    ("verifier.classify.busy_s", "s/op", "tally", "verifier.classify", "busy_s"),
    ("verifier.classify.straddle_ratio", "ratio", "ratio", "verifier.classify", "straddle"),
    ("verifier.restart.calls", "calls/op", "tally", "verifier.restart", "calls"),
    ("verifier.restart.busy_s", "s/op", "tally", "verifier.restart", "busy_s"),
    ("verifier.restart.empty_ratio", "ratio", "ratio", "verifier.restart", "empty"),
    ("verifier.passive.busy_s", "s/op", "tally", "verifier.passive", "busy_s"),
    ("verifier.passive.self_s", "s/op", "tally", "verifier.passive", "self_s"),
    ("verifier.passive.pipes", "pipes/op", "report", "verifier.passive", "passive_pipes"),
    ("verifier.passive.steps", "steps/op", "report", "verifier.passive", "passive_steps"),
    ("verifier.check.calls", "calls/op", "tally", "verifier.check", "calls"),
    ("verifier.check.busy_s", "s/op", "tally", "verifier.check", "busy_s"),
    ("starset.hull.calls", "calls/op", "tally", "starset.hull", "calls"),
    ("starset.hull.busy_s", "s/op", "tally", "starset.hull", "busy_s"),
    ("cli.emit_flowpipe.busy_s", "s/op", "tally", "cli.emit_flowpipe", "busy_s"),
    ("cli.emit_flowpipe.bytes", "B/op", "tally", "cli.emit_flowpipe", "bytes"),
    ("cli.emit_report.busy_s", "s/op", "tally", "cli.emit_report", "busy_s"),
    ("cli.emit_report.bytes", "B/op", "tally", "cli.emit_report", "bytes"),
    ("cli.load_scenario.busy_s", "s/op", "tally", "cli.load_scenario", "busy_s"),
    ("numsim.rk4.calls", "calls/op", "tally", "numsim.rk4", "calls"),
    ("numsim.rk4.busy_s", "s/op", "tally", "numsim.rk4", "busy_s"),
    ("numsim.rk4.steps", "steps/op", "tally", "numsim.rk4", "steps"),
    ("verifier.simulate.calls", "calls/op", "tally", "verifier.simulate", "calls"),
    ("verifier.simulate.busy_s", "s/op", "tally", "verifier.simulate", "busy_s"),
    ("verifier.pointwise.busy_s", "s/op", "tally", "verifier.pointwise", "busy_s"),
    ("lqr.design.calls", "calls/op", "tally", "lqr.design", "calls"),
    ("lqr.design.busy_s", "s/op", "tally", "lqr.design", "busy_s"),
    ("hybrid.build.calls", "calls/op", "tally", "hybrid.build", "calls"),
    ("hybrid.build.busy_s", "s/op", "tally", "hybrid.build", "busy_s"),
    ("numsim.expm.calls", "calls/op", "tally", "numsim.expm", "calls"),
    ("numsim.expm.busy_s", "s/op", "tally", "numsim.expm", "busy_s"),
)


def _layer_value(source: str, layer: str, fld: str, traced: list[Op], tracer):
    if layer in tracer.missing:
        return None
    t = tracer.tallies[layer]
    if source == "report":
        return sum(getattr(op, fld) for op in traced) / len(traced)
    count = getattr(t, fld) if fld in ("calls", "busy_s", "self_s") else t.extra.get(fld, 0)
    if source == "ratio":
        return count / t.calls if t.calls else 0.0
    if fld.endswith("_s"):
        # Tallies span the whole run: scale by the traced ops' mean yardstick.
        count *= sum(op.nominal_s for op in traced) / sum(op.s for op in traced)
    return count / len(traced)


def per_layer(ops: list[Op], setups: list[dict], tracer) -> dict:
    """Traced-run metrics; times are in nominal seconds except `wall.*`."""
    traced = [op for op in ops if op.traced]
    plain = [op for op in ops if not op.traced]
    plain_p50 = statistics.median(op.nominal_s for op in plain)
    out = {name: (_layer_value(source, layer, fld, traced, tracer), unit)
           for name, unit, source, layer, fld in PER_LAYER}
    # The untraced ops' op_s.p50 and steps_per_s in raw wall seconds: a gain
    # claimed in nominal seconds must hold here too (README.md, Noise).
    out["wall.op_s.p50"] = (statistics.median(op.s for op in plain), "s")
    out["wall.steps_per_s"] = (sum(op.steps for op in plain) / sum(op.s for op in plain),
                               "steps/s")
    out["setup.import_s"] = (statistics.median(s["import_s"] for s in setups), "s")
    out["setup.inputs_s"] = (statistics.median(s["inputs_s"] for s in setups), "s")
    out["trace.overhead_frac"] = (
        statistics.median(op.nominal_s for op in traced) / plain_p50 - 1.0, "ratio")
    out["trace.coverage_frac"] = (tracer.top_s / sum(op.s for op in traced), "ratio")
    return out


# ---------------------------------------------------------------------------
# run record


def git_commit():
    """The checkout's commit; None if it is not a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record() -> dict:
    import numpy
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


# ---------------------------------------------------------------------------
# main


def _print_table(args, ops, setups, metrics, record) -> None:
    import yardstick
    plain = [op for op in ops if not op.traced]
    failed = sum(not op.ok for op in ops)
    raw = [op.s for op in plain]
    print(f"run record: {json.dumps(record, sort_keys=True)}")
    print(f"workload {args.workload} (pool {args.pool}), seed {args.seed}, trace {args.trace}: "
          f"{len(ops)} ops ({len(plain)} untraced), {failed} failed")
    print(f"raw wall: op p50 {statistics.median(raw):.6g} s, "
          f"{sum(op.steps for op in plain) / sum(raw):.6g} steps/s, "
          f"setup {statistics.median(s['setup_s'] for s in setups):.6g} s; yardstick median "
          f"{1e3 * statistics.median(op.y for op in ops):.4g} ms "
          f"(nominal {1e3 * yardstick.NOMINAL_S:g} ms)")
    tail_info = tail([op.nominal_s for op in plain])
    width = max(len(k) for k in metrics) + 2
    for name, (value, unit) in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:<{width}} {shown} {unit}")
    print(f"  {'failed_frac':<{width}} {failed / len(ops):.6g} ratio")
    if tail_info is None:
        print(f"  {'op_s.tail':<{width}} n/a (fewer than 11 untraced ops)")
    else:
        print(f"  {'op_s.tail':<{width}} {tail_info[1]:.6g} s "
              f"(p{tail_info[0]}: 10 of {len(plain)} ops beyond)")


def main(argv=None) -> int:
    args = parse_args(argv)
    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    tracer = None
    try:
        if args.setup_probe:
            run_probe(args, work_dir)
            return 0
        wl, entries, _, _ = set_up(args.workload, args.pool, work_dir)
        refs = load_reference(args.workload, args.pool, entries)
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        import yardstick
        with yardstick.Sampler() as sampler:
            ops = measure(wl, entries, refs, args.seed, args.seconds, tracer)
        for op in ops:
            op.y, spent = sampler.gauge(op.t0, op.t0 + op.s)
            op.nominal_s = yardstick.nominal(op.s - spent, op.y)
        setups = probe_setup(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = end_to_end(ops, setups) if not args.trace else per_layer(ops, setups, tracer)
    record = run_record()
    _print_table(args, ops, setups, metrics, record)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.pool}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(str(OUT_DIR / f"{stem}-spans.jsonl"))
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "record": record, "setup": setups,
                   "missing_layers": tracer.missing if tracer else [],
                   "ops": [asdict(op) for op in ops],
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
                  fh, indent=1)
        fh.write("\n")

    failed = sum(not op.ok for op in ops)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
