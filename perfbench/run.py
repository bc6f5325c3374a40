"""Benchmark entry point.

    python3 perfbench/run.py --workload catalog-check --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``. With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced pass and the tracing
overhead. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5


def import_program() -> None:
    """Put ``src/`` first on the path; exit 2 when there is no program."""
    package = ROOT / "src" / "toricfans" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: no program at {package.parent}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import toricfans

    if Path(toricfans.__file__).resolve() != package.resolve():
        print(f"perfbench: imported toricfans from {toricfans.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)


def _setup(workloads, workload: str, seed: int, workdir: Path):
    """Build the inputs SETUP_REPEATS times; the median time is ``setup_s``."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops = workloads.build_ops(workload, seed, workdir)
        times.append(time.perf_counter() - start)
    return ops, times


def _report(results, metrics: dict, notes: dict) -> None:
    for r in results:
        if r.timed_out:
            print(f"timeout {r.key} rung={r.rung} elapsed_s={r.elapsed_s:.4f}")
        for problem in r.problems:
            print(f"FAILED {r.key}: {problem}")
    for key, value in notes.items():
        print(f"{key}: {value}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    failed = sum(bool(r.problems) for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="toricfans benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from perfbench import harness, workloads
    from perfbench.tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    recorded = json.loads((ROOT / "perfbench" / "expected.json").read_text())["digests"]
    budget = workloads.BUDGET_S[args.workload]
    workdir = OUT / f"work-{args.workload}-{args.seed}"
    try:
        ops, setup_times = _setup(workloads, args.workload, args.seed, workdir)
        if not args.trace:
            passes = harness.run_timed(ops, budget, recorded, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics, notes = harness.end_to_end(passes, setup_times, peak_rss_mb)
            _report([r for rs in passes for r in rs], metrics, notes)
            return 0
        tracer = Tracer()
        plain, traced = [], []
        for i, op in enumerate(ops):
            # untraced and traced back to back, so both see the same machine speed
            plain.append(harness.run_op(op, budget, recorded))
            tracer.install()
            try:
                traced.append(harness.run_op(op, budget, recorded, tracer, i))
            finally:
                tracer.uninstall()
        both = [(p, t) for p, t in zip(plain, traced) if p.decided and t.decided]
        plain_s = sum(p.elapsed_s for p, _ in both)
        metrics = tracer.metrics()
        metrics["trace_overhead_frac"] = {
            "value": sum(t.elapsed_s for _, t in both) / plain_s - 1 if plain_s else 0.0,
            "unit": "ratio",
        }
        spans = OUT / f"spans-{args.workload}.csv.gz"
        tracer.write_spans(spans)
        _report(plain + traced, metrics, {"spans_file": spans.relative_to(ROOT), "spans": len(tracer.op)})
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
