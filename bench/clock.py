"""Timings expressed at a fixed reference machine speed.

The host this benchmark runs on shares its cores: for spans of a second to
several minutes the same single-threaded code runs up to 2x slower, in CPU
time as much as in wall time, so the time of a whole run is not steady. A
`Clock` therefore runs a short fixed probe right before and right after
each timed operation, and scales the operation's wall time by how much
slower than `PROBE_REF_S` the probe ran around it:

    ref_s = wall_s * PROBE_REF_S / mean(probe before, probe after)

On an idle machine of the reference speed ref_s equals wall_s. Operations
are kept short (a fraction of a second to a few seconds) so the probes see
the state the operation ran in. On the 2-vCPU build machine this cut the
spread of passes within one process from about 0.3 to about 0.1. It holds
only for single-threaded work: the wall time of a scan on a thread pool,
whose threads contend for the GIL across vCPUs, did not follow the probe at
all, so the benchmark runs every operation on one thread. The raw wall
times are kept beside the scaled ones in the result file.
"""

from __future__ import annotations

import random
import re
import statistics
import time

import numpy as np

# about the probe's time on the 2-vCPU build machine when the host is quiet
PROBE_REF_S = 0.0015
# a probe older than this is not reused as the "before" probe of an operation
_STALE_S = 0.05

_TEXT = "lorem ipsum <w:instrText>DDEAUTO c:\\\\cmd</w:instrText> " * 200
_RX = re.compile(r"<w:instrText>([^<]*)</w:instrText>")
_ARRAY = np.random.default_rng(0).random((300, 40))
_ROWS = np.random.default_rng(1).random((200, 40))
_rng = random.Random(2)
# tree-like nodes spread over about 11 MB (counted in peak_rss_mb), walked by
# pointer chasing
_NODES = [{"feature": _rng.randrange(40), "threshold": _rng.random(),
           "left": _rng.randrange(20_000), "right": _rng.randrange(20_000)} for _ in range(20_000)]


def _probe_once() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(1_500):
        total += i * i % 7
    for _ in range(2):
        _RX.findall(_TEXT)
    for _ in range(3):
        np.argsort(_ARRAY, axis=0)
        (_ARRAY > 0.5).sum(axis=0)
    node = 0
    for _ in range(1_500):
        n = _NODES[node]
        total += n["feature"]
        node = n["left"] if n["threshold"] < 0.5 else n["right"]
    rows = np.arange(len(_ROWS))
    for f in range(20):
        mask = _ROWS[rows, f] <= 0.5
        rows = np.concatenate((rows[mask], rows[~mask]))
    return time.perf_counter() - start


def probe() -> float:
    """Seconds a fixed mixed loop takes right now (about 1.5 ms when idle):
    integer arithmetic, regex matching, small numpy reductions, dict-heavy
    pointer chasing and numpy fancy indexing. On the build machine each part
    alone tracked the program's slowdown nearly as well as the mix; the mix
    keeps any one kind of contention from deciding. The median of three runs, so
    that neither a run with cold caches right after an operation nor one hit
    by a stall of tens of milliseconds (both seen on the build machine)
    decides the scale."""
    return statistics.median(_probe_once() for _ in range(3))


class Clock:
    """Times operations in reference seconds; consecutive operations share
    the probe between them."""

    def __init__(self):
        self.probes: list[float] = []
        self._last: tuple[float, float] | None = None  # (probe seconds, when it ended)

    def _probe(self) -> float:
        p = probe()
        self.probes.append(p)
        self._last = (p, time.perf_counter())
        return p

    def time(self, fn, *args):
        """Run fn(*args); returns (result, wall seconds, reference seconds)."""
        if self._last is None or time.perf_counter() - self._last[1] > _STALE_S:
            self._probe()
        before = self._last[0]
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        after = self._probe()
        return result, wall, wall * PROBE_REF_S * 2 / (before + after)
