"""
The host probe: a fixed pure-Python computation timed next to every op, so
that op times can be reported at one reference speed of the host.  This
module imports only `time`, so a fresh CLI process can time the probe
without changing what it imports.
"""

import time

# About the probe's fastest time on a shared 2-CPU Linux machine with
# Python 3.11: its 1st percentile over 20,000 calls was 0.21 ms, its
# median, while other tenants were busy, 0.42 ms.
REFERENCE_SECONDS = 0.0002


def host_probe() -> int:
    """Build small tuples and update a dict, like the library's inner loops."""
    counts: dict[int, int] = {}
    word: tuple[int, ...] = ()
    for i in range(1000):
        word = word + (i,) if len(word) < 20 else (i,)
        counts[i % 97] = counts.get(i % 97, 0) + len(word)
    return len(counts)


def timed_probe(calls: int = 1) -> float:
    """Seconds of the fastest of `calls` probes; a fresh process needs a few to warm up."""
    best = float("inf")
    for _ in range(calls):
        start = time.perf_counter()
        host_probe()
        best = min(best, time.perf_counter() - start)
    return best


def at_reference_speed(seconds: float, probe_seconds: float) -> float:
    """A measured time rescaled to the host speed at which the probe takes REFERENCE_SECONDS."""
    return seconds * REFERENCE_SECONDS / probe_seconds
