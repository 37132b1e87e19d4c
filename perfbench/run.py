"""
Seeded benchmark of bfcalc.  Run from the root of a checkout:

    python3 perfbench/run.py --workload axioms --seed 1 --seconds 20 --trace 0

One run measures one workload as a closed loop: one client in one process,
no threads, the next op starting when the previous one returns.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
a fixed op list under the span tracer and reports per-layer metrics.  The
last line of standard output is one JSON object.  See README.md beside
this file for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import at_reference_speed, timed_probe

WORKLOADS = ("axioms", "signs", "roundtrip", "cli")
# Fresh interpreters timed for setup_s, and for cli.import_s / cli.interp_s.
SETUP_RUNS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="nominal measuring time of an untraced run: its op list holds "
                             "the workload's ops_per_second times this many ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many ops instead")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this interpreter and print it")
    return parser.parse_args(argv)


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of a sorted list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# Set-up and interpreter timings, each in a fresh interpreter
# ---------------------------------------------------------------------------

def setup_only(root: Path, workload: str) -> None:
    start = time.perf_counter()
    if workload == "cli":
        import bfcalc.cli  # noqa: F401
    else:
        import workloads

        workloads.make(workload, root)
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "probe_s": timed_probe(calls=3)}))


def child_env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def fresh_setup(root: Path, workload: str) -> tuple[float, float]:
    """Set-up seconds in a fresh interpreter, and that interpreter's host probe."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-only"],
        cwd=root, env=child_env(root), capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed in a fresh interpreter:\n{done.stderr}")
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    return doc["setup_s"], doc["probe_s"]


def bare_interpreter_seconds(root: Path) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=root, check=True)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

class Loop:
    """
    Ops, their durations and the digests of their inputs and outputs.

    A shared host can change speed by up to 2x from one op to the next,
    and CPU time moves with wall time (README.md).  So the loop times the
    host probe right after every op; a `cli` op's own process times it
    before and after its command instead, and that time is taken off the
    op.  The reported durations are the measured ones rescaled to the
    reference speed (probe.py); the measured ones are printed beside them.
    """

    def __init__(self):
        self.durations: list[float] = []
        self.probes: list[float] = []
        self.completed: list[bool] = []
        self.inputs = hashlib.sha256()
        self.outputs = hashlib.sha256()

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def failed(self) -> int:
        return self.completed.count(False)

    def run(self, wl, rng, *, ops, deadline, tracer, envelope_errors):
        clock = time.perf_counter
        probes_in_child = getattr(wl, "probes_in_child", False)
        for k in range(ops):
            if clock() > deadline:
                print(f"warning: stopped after {k} of {ops} ops at the deadline",
                      file=sys.stderr)
                break
            op = wl.draw(rng, k)
            self.inputs.update(repr(wl.describe(op)).encode() + b"\n")
            if tracer is not None:
                tracer.op, tracer.recording = k, True
            t0 = clock()
            failure = None
            try:
                out = wl.run(op)
            except envelope_errors as exc:
                failure = exc
            duration = clock() - t0
            if tracer is not None:
                tracer.recording = False
            if probes_in_child:
                duration -= out.probe_spent_s
                self.probes.append(out.probe_s)
            else:
                self.probes.append(timed_probe())
            self.durations.append(duration)
            if failure is None:
                # A check may meet an envelope error too (it computes
                # expected answers with the library); that op failed.
                try:
                    digest = wl.check(k, op, out)
                except envelope_errors as exc:
                    failure = exc
            self.completed.append(failure is None)
            self.outputs.update((digest if failure is None
                                 else type(failure).__name__.encode()) + b"\n")

    def scaled(self) -> list[float]:
        return [at_reference_speed(d, p) for d, p in zip(self.durations, self.probes)]

    def timings(self, durations: list[float]) -> tuple[float, float, float]:
        """ops_per_s, op_p50_ms and op_p90_ms of the given op durations."""
        # A failed op misses every latency limit, so it sorts last.
        latencies = sorted(d if ok else math.inf for d, ok in zip(durations, self.completed))
        return (sum(self.completed) / sum(durations),
                1e3 * percentile(latencies, 0.5), 1e3 * percentile(latencies, 0.9))

    def end_to_end(self, setups: list[tuple[float, float]], peak_rss_kib: int) -> dict:
        ops_per_s, p50, p90 = self.timings(self.scaled())
        return {
            "setup_s": (statistics.median(at_reference_speed(*setup) for setup in setups), "s"),
            "ops_per_s": (ops_per_s, "ops/s"),
            "op_p50_ms": (p50, "ms"),
            "op_p90_ms": (p90, "ms"),
            "ok_frac": (1 - self.failed / self.attempted, "ratio"),
            "peak_rss_mb": (peak_rss_kib / 1024, "MiB"),
        }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "bfcalc" / "__init__.py").is_file():
        print(f"error: no bfcalc sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.setup_only:
        setup_only(root, args.workload)
        return 0

    setups = [fresh_setup(root, args.workload) for _ in range(SETUP_RUNS)]

    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    wl = workloads.make(args.workload, root, tracer)
    if tracer is not None:
        tracer.install()
    rng = random.Random(f"{args.workload}/{args.seed}")
    if args.ops is not None:
        ops = args.ops
    elif tracer is not None:
        ops = wl.trace_ops
    else:
        ops = max(1, round(wl.ops_per_second * args.seconds))
    # A safety valve for a much slower program; a traced list is never cut,
    # so that its counts repeat.
    deadline = math.inf if tracer is not None else time.perf_counter() + 3 * args.seconds + 30
    loop = Loop()
    try:
        loop.run(wl, rng, ops=ops, deadline=deadline, tracer=tracer,
                 envelope_errors=workloads.ENVELOPE_ERRORS)
    except workloads.WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{loop.attempted} ops attempted, {loop.failed} failed, "
          f"{sum(loop.durations):.3f} s timed")
    print(f"inputs  sha256 {loop.inputs.hexdigest()} over {loop.attempted} ops")
    print(f"outputs sha256 {loop.outputs.hexdigest()} over {loop.attempted} ops")

    if tracer is None:
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        metrics = loop.end_to_end(setups, resource.getrusage(who).ru_maxrss)
        print(f"latency samples: {loop.attempted}; setup samples: {len(setups)}")
        print("as measured: setup_s %.6g, ops_per_s %.6g, op_p50_ms %.6g, op_p90_ms %.6g; "
              "host probe median %.3f ms" % (statistics.median(t for t, _ in setups),
                                             *loop.timings(loop.durations),
                                             1e3 * statistics.median(loop.probes)))
    else:
        metrics = tracer.metrics()
        metrics["trace.ops_per_s"] = (loop.timings(loop.scaled())[0], "ops/s")
        metrics["cli.import_s"] = (statistics.median(
            fresh_setup(root, "cli")[0] for _ in range(SETUP_RUNS)), "s")
        metrics["cli.interp_s"] = (statistics.median(
            bare_interpreter_seconds(root) for _ in range(SETUP_RUNS)), "s")
        path = Path(spans.out_dir(root)) / f"spans-{args.workload}-{args.seed}.json"
        tracer.write(str(path))
        print(f"{len(tracer.spans)} spans written to {path.relative_to(root)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
