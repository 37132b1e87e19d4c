"""
One op of the `cli` workload: run one bfcalc command in this fresh
interpreter, as `python -m bfcalc.cli ARG...` would, with the host probe
timed before and after it.  The last line of standard error is
`probe <mean probe seconds> <seconds spent probing>`, also when the command
raised: its traceback comes before that line, and the exit code is 1.

    python3 perfbench/cli_child.py ARG...
    python3 perfbench/cli_child.py --spans OUT.json ARG...

With `--spans`, the command runs under the span tracer, which writes its
spans to OUT.json.
"""

import sys
import time
import traceback

from probe import timed_probe


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    start = time.perf_counter()
    before = timed_probe(calls=3)
    spent = time.perf_counter() - start
    status = 1
    try:
        import bfcalc.cli

        tracer = None
        if spans_path is not None:
            import spans

            tracer = spans.Tracer()
            tracer.install()
            tracer.op, tracer.recording = 0, True
        try:
            status = bfcalc.cli.main(argv)
        finally:
            if tracer is not None:
                tracer.recording = False
                tracer.write(spans_path)
    except Exception:
        traceback.print_exc()
    finally:
        sys.stdout.flush()
        start = time.perf_counter()
        after = timed_probe(calls=3)
        spent += time.perf_counter() - start
        sys.stderr.write(f"\nprobe {(before + after) / 2!r} {spent!r}\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
