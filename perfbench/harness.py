"""Running ops under a time budget, one closed-loop client in-process.

Each op calls ``toricfans.cli.main(argv)`` with stdout and stderr captured.
An op over its budget is stopped by SIGALRM, which raises `OpTimeout` at the
next bytecode of the interrupted call; the op is recorded as a timeout with
its full elapsed time, and the next op loads its own fan from its file, so it
starts from fresh state.
"""

from __future__ import annotations

import contextlib
import gc
import io
import signal
import statistics
import time
from dataclasses import dataclass

from toricfans import cli

from .checks import check_output
from .workloads import Op


class OpTimeout(Exception):
    """Raised inside an op that ran past its budget."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@dataclass(frozen=True)
class OpResult:
    key: str
    rung: int | None
    elapsed_s: float
    timed_out: bool
    problems: tuple[str, ...]

    @property
    def decided(self) -> bool:
        return not self.timed_out and not self.problems


def run_op(op: Op, budget_s: float, recorded: dict[str, str], tracer=None, op_index: int = 0,
           capture: dict | None = None) -> OpResult:
    """Run one op and check its output; a timeout is a result, not an error.
    ``capture``, when given, receives the op's stdout."""
    out, err = io.StringIO(), io.StringIO()
    # garbage left by an earlier op, above all one cut off mid-elimination,
    # must not be collected on this op's time
    gc.collect()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    if tracer is not None:
        tracer.start_op(op_index)
        tracer.active = True
    timed_out, error = False, None
    start = time.perf_counter()
    try:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                signal.setitimer(signal.ITIMER_REAL, budget_s)
                rc = cli.main(list(op.argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        timed_out = True
    except Exception as exc:  # an internal error is a failed op, not a crash
        error = f"raised {exc!r}"
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        signal.signal(signal.SIGALRM, previous)
    if timed_out:
        return OpResult(op.key, op.rung, elapsed, True, ())
    if error is not None:
        return OpResult(op.key, op.rung, elapsed, False, (error,))
    if capture is not None:
        capture["stdout"] = out.getvalue()
    problems = check_output(op, rc, out.getvalue(), recorded)
    return OpResult(op.key, op.rung, elapsed, False, tuple(problems))


def run_pass(ops: list[Op], budget_s: float, recorded: dict[str, str]) -> list[OpResult]:
    """Every op once, in order."""
    return [run_op(op, budget_s, recorded) for op in ops]


def run_timed(ops: list[Op], budget_s: float, recorded: dict[str, str], seconds: float):
    """Whole passes for about ``seconds``: at least one, and another only
    while the last pass's length still fits in the time left."""
    passes: list[list[OpResult]] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(ops, budget_s, recorded))
        now = time.perf_counter()
        if now - pass_start > seconds - (now - start):
            return passes


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its
    value; with fewer than eleven samples, the smallest."""
    ordered = sorted(samples)
    index = max(0, len(ordered) - 11)
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def end_to_end(passes, setup_times: list[float], peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics and the notes printed beside them.

    ``run_s`` is the time one pass spends in ops, median over the passes; it
    leaves out the benchmark's own output checks between ops.
    """
    results = [r for pass_results in passes for r in pass_results]
    latencies = [r.elapsed_s for r in results]
    percentile, tail_value = tail(latencies)
    metrics = {
        "run_s": {"value": statistics.median(sum(r.elapsed_s for r in rs) for rs in passes), "unit": "s"},
        "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
        "op_tail_s": {"value": tail_value, "unit": "s"},
        "decided_frac": {"value": sum(r.decided for r in results) / len(results), "unit": "ratio"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    notes = {
        "passes": len(passes),
        "ops_per_pass": len(passes[0]),
        "op_tail_percentile": percentile,
        "latency_samples": len(latencies),
        "timeouts": sum(r.timed_out for r in results),
    }
    return metrics, notes
