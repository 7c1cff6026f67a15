"""ottospin benchmark: seeded workloads, end-to-end metrics, traced per-layer metrics.

    python3 perfbench/run.py --workload cycle-sample --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process runs one client in a closed loop: the next operation starts when
the previous one returns.  Operations run until their summed wall time
reaches ``--seconds``, in whole rounds (see ``workloads.py``).  Every output
is checked, between operations and in a child process (``checks.py``), so
the checks stay out of the timed wall and out of ``peak_rss_mb``; an
exception or a wrong output counts as a failed operation and the run goes
on.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, writes the spans to ``perfbench/_out`` and
reports the per-layer metrics.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--workload all`` each workload runs in its own interpreter and the last
line combines them.  ottospin is imported from ``src/`` next to this
directory and nowhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
WORKLOAD_NAMES = ("cycle-sample", "long-ramp", "sweep-suite", "region-grid")
SETUP_RUNS = 5
P90_MIN_OPS = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}
# Printed for reading, not in the result line: zero on a correct run,
# defined only for runs of at least P90_MIN_OPS operations, or the memory of
# the checker process rather than of the program.
REPORT_UNITS = {"failed_ops_ratio": "1", "latency_p90_ms": "ms", "checker_peak_rss_mb": "MB"}

SETUP_SCRIPT = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
import ottospin
if ottospin.__file__ != {str(SRC / "ottospin" / "__init__.py")!r}:
    sys.exit(3)
from ottospin import RampProtocol, load_reference_data, propagate
load_reference_data()
propagate(RampProtocol(2000.0, 3600.0, 200e-6, 128))
"""


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_ottospin():
    """Import ottospin from ``src/``; returns the warnings raised on import."""
    init = SRC / "ottospin" / "__init__.py"
    if not init.is_file():
        raise HarnessError(f"no ottospin sources at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        import ottospin
    if Path(ottospin.__file__).resolve() != init.resolve():
        raise HarnessError(f"ottospin was imported from {ottospin.__file__}, not {init}")
    return [f"{w.category.__name__}: {w.message}" for w in caught]


def measure_setup(runs: int = SETUP_RUNS) -> float:
    """Median wall time of a fresh interpreter importing ottospin and warming up."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_SCRIPT], capture_output=True,
                              text=True, cwd=ROOT, timeout=120)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise HarnessError(
                f"set-up interpreter exited {done.returncode}: {done.stderr[-2000:]}")
    return statistics.median(times)


def measure(workload, seconds: float, checker, tracer=None) -> dict:
    """Closed-loop timed operations; with a tracer, odd rounds are traced.

    Each output is checked by ``checker`` after its operation, outside the
    timed wall.
    """
    import checks
    import tracing

    timed = {False: [], True: []}  # traced? -> [(wall_s, cpu_s, ok)]
    failures = []
    measured = 0.0
    min_rounds = 1 if tracer is None else 2
    for index, batch in enumerate(workload.rounds()):
        if index >= min_rounds and measured >= seconds:
            break
        traced = tracer is not None and index % 2 == 1
        uninstall = tracing.install(tracer) if traced else None
        try:
            for inp in batch:
                op_id = sum(len(v) for v in timed.values())
                error = out = None
                cpu0, wall0 = time.process_time(), time.perf_counter()
                try:
                    out = tracer.op(op_id, workload.run, inp) if traced else workload.run(inp)
                except Exception as exc:  # a failed operation, not a failed run
                    error = f"{type(exc).__name__}: {exc}"
                wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
                if error is None:
                    try:
                        error = checker.op(workload.name, inp, workload.record(inp, out))
                    except checks.CheckerError:
                        raise
                    except Exception as exc:  # malformed output is wrong output too
                        error = f"{type(exc).__name__}: {exc}"
                if error is not None:
                    failures.append(f"op {op_id}: {error}")
                timed[traced].append((wall, cpu, error is None))
                measured += wall
        finally:
            if uninstall is not None:
                uninstall()
    return {"untraced": timed[False], "traced": timed[True], "failures": failures}


def ops_per_s(ops) -> float:
    return sum(ok for _, _, ok in ops) / sum(wall for wall, _, _ in ops)


def end_to_end(ops, setup_s: float) -> tuple[dict, dict]:
    walls = [wall for wall, _, _ in ops]
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s(ops),
        "latency_p50_ms": statistics.median(walls) * 1e3,
        "cpu_ms_per_op": sum(cpu for _, cpu, _ in ops) / len(ops) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {"failed_ops_ratio": sum(not ok for _, _, ok in ops) / len(ops)}
    if len(ops) >= P90_MIN_OPS:
        report["latency_p90_ms"] = statistics.quantiles(walls, n=10)[-1] * 1e3
    return metrics, report


def provenance(ottospin, import_warnings, seed, attempted, traced) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    digest = hashlib.sha256()
    for path in sorted((SRC / "ottospin").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "kernel_backend": ottospin.KERNEL_BACKEND,
        "ottospin_version": ottospin.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "ops": attempted,
        "traced": traced,
        "import_warnings": import_warnings,
    }


def run_canary(workload) -> tuple[dict, list[str]]:
    """Canary outputs, or the failure that prevented them."""
    try:
        return workload.canary_outputs(), []
    except Exception as exc:
        return {}, [f"canary: {type(exc).__name__}: {exc}"]


def stored_canary_failures(checker, workdir: Path, outputs: dict) -> list[str]:
    """Each canary output against its stored reference, in the checker."""
    failures = []
    canary_dir = workdir / "canary"
    canary_dir.mkdir(exist_ok=True)
    for name, text in outputs.items():
        path = canary_dir / name
        path.write_text(text)
        error = checker.canary(name, path)
        if error is not None:
            failures.append(f"canary {name}: {error}")
    return failures


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One workload in this process; returns the full result record."""
    import_warnings = import_ottospin()
    import ottospin

    import checks
    import tracing
    import workloads

    setup_s = None if trace else measure_setup(1 if tiny else SETUP_RUNS)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        with checks.Checker() as checker:
            workload = workloads.make(name, seed, tiny=tiny, workdir=workdir)
            canary, wrong = run_canary(workload)
            wrong += stored_canary_failures(checker, workdir, canary)
            tracer = tracing.Tracer() if trace else None
            timed = measure(workload, seconds, checker, tracer)
            if canary:
                again, errors = run_canary(workload)
                wrong += errors or [f"canary {file}: two identical runs wrote different bytes"
                                    for file in canary if again.get(file) != canary[file]]
    except checks.CheckerError as exc:
        raise HarnessError(str(exc)) from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(timed["untraced"]) + len(timed["traced"])
    failed = len(timed["failures"])
    if trace:
        overhead = ops_per_s(timed["traced"]) / ops_per_s(timed["untraced"])
        layer = tracing.layer_metrics(tracer.spans, tracer.counters, overhead)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        extra = {}
        harness_warnings = [f"tracing counter: {line}" for line in tracer.counters.errors]
        tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
    else:
        values, extra = end_to_end(timed["untraced"], setup_s)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        harness_warnings = []
    if checker.peak_rss_mb is not None:
        extra["checker_peak_rss_mb"] = checker.peak_rss_mb
    report = {k: {"value": v, "unit": REPORT_UNITS[k]} for k, v in extra.items()}
    record = {
        "workload": name,
        "correct": failed == 0 and not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": report,
        "failures": timed["failures"][:20] + wrong,
        "harness_warnings": harness_warnings,
        "latencies_ms": {kind: [wall * 1e3 for wall, _, _ in timed[kind]]
                         for kind in ("untraced", "traced")},
        "provenance": provenance(ottospin, import_warnings, seed, attempted, trace),
    }
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record


def print_record(record: dict) -> None:
    prov = record["provenance"]
    print(f"workload {record['workload']} seed {prov['seed']} "
          f"{'traced' if prov['traced'] else 'untraced'}: {record['attempted']} ops attempted, "
          f"{record['failed']} failed")
    for name, m in {**record["metrics"], **record["report"]}.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    if not prov["traced"] and "latency_p90_ms" not in record["report"]:
        print(f"  {'latency_p90_ms':48s} n/a ({record['attempted']} ops < {P90_MIN_OPS})")
    for line in record["failures"]:
        print(f"  FAILED {line}")
    for line in record["harness_warnings"]:
        print(f"  HARNESS WARNING {line}")
    print("provenance " + json.dumps(prov, sort_keys=True))


def result_line(record: dict) -> str:
    return json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")})


def run_all(args) -> int:
    """Each workload in a fresh interpreter; the last line combines the results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            sys.stderr.write(child.stderr)
            print(f"error: workload {name} exited {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must not be negative")
    try:
        if args.workload == "all":
            import_ottospin()
            return run_all(args)
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_record(record)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
