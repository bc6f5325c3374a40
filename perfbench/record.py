"""Record the expected outputs and op times that the benchmark checks against.

    python3 perfbench/record.py

Run once at the commit whose outputs are the reference. It runs every op of
every workload with a generous cap and writes ``perfbench/expected.json``:
the output digest of each op that finished (see ``checks.output_digest``)
and each op's time, ``null`` where it ran past the cap. Certificates are
re-verified before a digest is recorded.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import ROOT, OUT, import_program

CAP_S = {"catalog-check": 30.0, "blowup-ladder": 10.0, "surgery-search": 30.0, "enumerate": 60.0}


def main() -> int:
    import_program()
    from perfbench import harness, workloads
    from perfbench.checks import NO_DIGEST, output_digest

    digests: dict[str, str] = {}
    times: dict[str, float | None] = {}
    for workload in workloads.WORKLOADS:
        workdir = OUT / f"record-{workload}"
        for op in workloads.build_ops(workload, 0, workdir):
            capture = {}
            result = harness.run_op(op, CAP_S[workload], {}, capture=capture)
            times[op.key] = None if result.timed_out else round(result.elapsed_s, 4)
            problems = [p for p in result.problems if p != NO_DIGEST]
            if problems:
                print(f"{op.key}: {problems}", file=sys.stderr)
                return 1
            if not result.timed_out:
                digests[op.key] = output_digest(op, capture["stdout"])
            print(f"{workload} {op.key} {times[op.key]}", flush=True)
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {"digests": dict(sorted(digests.items())), "op_times_s": dict(sorted(times.items()))}
    (ROOT / "perfbench" / "expected.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
