"""Speed probe: a fixed piece of the benchmark's own pure-Python work, timed
next to every operation so that timings can be read at one reference speed.

The host's speed drifts, within seconds as well as over minutes: the same
pass over the same operations took from 7 to 11 s within two minutes, with
the process's CPU time equal to its wall time, so the drift is the
processor's speed and not time taken away from the process.  The probe is
timed before and after each operation.  Each timing is scaled by ``REF_S``
over the mean of the two probe times around it, which reads it as if the
probe had taken ``REF_S`` seconds.  The probe uses no code of the program,
so a change to the program moves the operations and not the probe.
"""

from __future__ import annotations

import itertools
import random
import statistics
import time

import oracle

# Probe time at the reference speed; it took about this long on a 2-core VM.
REF_S = 0.005


class Probe:
    """Committee scoring like the program's rules, plus dict counting and a
    sort: about 5 ms of work of the kind the program does."""

    def __init__(self):
        rng = random.Random(0)
        m = 12
        self.election = oracle.Election(m, [rng.sample(range(m), m) for _ in range(20)])
        self.committees = list(itertools.combinations(range(m), 4))[:60]
        self.keys = [rng.randrange(1000) for _ in range(10000)]

    def work(self):
        for committee in self.committees:
            self.election.score(oracle.BETACC, committee)
            self.election.score(oracle.MONROE, committee)
        counts: dict[int, int] = {}
        for key in self.keys:
            counts[key] = counts.get(key, 0) + 1
        return sorted(counts.items(), key=lambda item: item[1])

    def time(self) -> float:
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start

    def median(self, samples: int = 3) -> float:
        return statistics.median(self.time() for _ in range(samples))


def scaled(times: list[float], probes: list[float]) -> list[float]:
    """Each time read at the reference speed: ``times[i]`` ran between
    ``probes[i]`` and ``probes[i + 1]``."""
    return [t * 2 * REF_S / (probes[i] + probes[i + 1]) for i, t in enumerate(times)]
