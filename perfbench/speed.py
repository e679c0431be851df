"""The machine's speed, measured alongside the program.

The benchmark shares a few cores of a host with other tenants, and the
speed at which it runs drifts by a fifth to a half over seconds and
minutes.  A run's times alone would then say as much about the host as
about the program.  So a pass takes a reading of the machine's speed every
PROBE_GAP_S seconds between verdicts: the least of PROBE_REPEATS runs of
`probe_work`, a fixed piece of pure-Python work in the program's own idiom
(tuples hashed into a dict, union-find over integers, a sort with a key
function).  A verdict's time is then scaled to the speed at which that
probe takes NOMINAL_PROBE_S seconds (see `scaled`): the time the verdict
would take on a machine of constant speed.  NOMINAL_PROBE_S is about the
median reading on the shared 2-vCPU VM (2.1 GHz, Python 3.11) that the
baseline in baseline.json was recorded on; the run prints its own median
reading.
"""

from __future__ import annotations

import time

PROBE_GAP_S = 0.1  # seconds of verdicts between two readings
PROBE_REPEATS = 3
NOMINAL_PROBE_S = 0.0025

PROBE_SIZE = 1200  # terms built by one probe_work


def probe_work(n: int = PROBE_SIZE) -> int:
    """Fixed work whose time tracks the machine's speed for the program."""
    table: dict = {}
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    x = 12345
    terms = []
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        a, b = x % n, (x >> 8) % n
        term = ("f", a, ("g", b, i & 7))
        table.setdefault(term, len(table))
        terms.append(term)
        ra, rb = find(a), find(b)
        if ra != rb and x & 3:
            parent[ra] = rb
    terms.sort(key=lambda t: (find(t[1]), t[2][1]))
    return len(table) + len("".join(map(str, terms[:50])))


def reading() -> float:
    """One reading: the least time of PROBE_REPEATS probes, in seconds."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        probe_work()
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, probe_s: float) -> float:
    """`seconds` measured while the probe took `probe_s`, at nominal speed."""
    return seconds * NOMINAL_PROBE_S / probe_s
