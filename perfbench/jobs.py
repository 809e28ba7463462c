"""Job pools and seeded rounds for the qkdv CLI benchmark.

A job is the argument list of one ``qkdv`` command, without ``--cache-dir``
(the runner adds a private one).  A workload is a fixed set of distinct
jobs, its pool, that every round runs once; the seed sets the order.  The
set is the same for every seed because the runner reports each job's best
latency over the rounds of a run, and a seed that changed the jobs would
change the work measured.  Every pool job has a frozen reference digest in
``reference.json``.
"""

from __future__ import annotations

import random

# ``intersect`` symmetrizes over set(permutations(jets)): n! tuples for
# n = d + 2 - 2g marked variables.  n = 12 (d=10, g=0) is about 4.8e8
# tuples; d=16, g=5 was measured at 25 s and d=18, g=6 at 111 s.  Jobs stay
# at d <= 14 and n <= 9 so that every job ends within seconds.
INTERSECT_DMAX = 14
INTERSECT_NMAX = 9


def hamiltonian(d: int, fmt: str) -> tuple[str, ...]:
    return ("hamiltonian", "-d", str(d), "--format", fmt)


def intersect(d: int, g: int, fmt: str) -> tuple[str, ...]:
    n = d + 2 - 2 * g
    if d > INTERSECT_DMAX or not 1 <= n <= INTERSECT_NMAX:
        raise ValueError(
            f"intersect -d {d} -g {g} has n={n}; the benchmark keeps "
            f"d <= {INTERSECT_DMAX} and 1 <= n <= {INTERSECT_NMAX}"
        )
    return ("intersect", "-d", str(d), "-g", str(g), "--format", fmt)


def commute(d1: int, d2: int, mmax: int) -> tuple[str, ...]:
    return ("commute", "--d1", str(d1), "--d2", str(d2), "--mmax", str(mmax))


def reconstruct(d: int, G: int) -> tuple[str, ...]:
    return ("reconstruct", "-d", str(d), "-G", str(G), "--compare")


def verify_all(fmt: str) -> tuple[str, ...]:
    return ("verify-all", "--level", "quick", "--format", fmt)


class Workload:
    """The jobs of a round plus the densities set-up puts in the cache."""

    def __init__(self, name: str, jobs, warm_dmax: int | None):
        self.name = name
        self.jobs = list(jobs)
        self.warm_dmax = warm_dmax

    def round(self, seed: int) -> list[tuple[str, ...]]:
        """The jobs of one round, in run order; a function of the seed only."""
        jobs = list(self.jobs)
        random.Random(f"{self.name}:{seed}").shuffle(jobs)
        return jobs

    def warm_jobs(self) -> list[tuple[str, ...]]:
        """CLI commands that fill the cache during set-up."""
        if self.warm_dmax is None:
            return []
        return [hamiltonian(d, "json") for d in range(-1, self.warm_dmax + 1)]


# Cold expansion of large densities, each job in an empty cache directory.
# A round of three sizes, 0.5 s, 0.9 s and 1.4 s, takes about 3.3 s with its
# calibrations, so about nine rounds fit in 30 s; the median job is d = 14.
EXPAND = Workload(
    "expand",
    [hamiltonian(d, "json") for d in (12, 14, 15)],
    warm_dmax=None,
)

# Warm reads: six light density requests across the cache and all three
# formats (cache load, render, CLI start-up) and three intersections of
# rising size, the largest (-d 12 -g 3, about 1.2 s) mostly falling_convert.
# A round takes about 3 s; the median job is a light request.
PREDICT = Workload(
    "predict",
    [
        hamiltonian(-1, "json"),
        hamiltonian(3, "text"),
        hamiltonian(8, "latex"),
        hamiltonian(11, "text"),
        hamiltonian(13, "json"),
        hamiltonian(14, "latex"),
        intersect(8, 3, "json"),
        intersect(11, 3, "text"),
        intersect(12, 3, "json"),
    ],
    warm_dmax=14,
)

# Exact checks on the Fock space on a cache warm for d <= 6: the quick suite,
# one light reconstruction and one commutator pair.  A round is three jobs of
# about 0.5 s, 0.9 s and 1.4 s; the median job is the commutator.
SOLVE = Workload(
    "solve",
    [
        verify_all("json"),
        reconstruct(1, 2),
        commute(-1, 4, 6),
    ],
    warm_dmax=6,
)

WORKLOADS = {w.name: w for w in (EXPAND, PREDICT, SOLVE)}


def all_pool_jobs() -> list[tuple[str, ...]]:
    """Every job any workload can generate, set-up commands included."""
    seen: dict[tuple[str, ...], None] = {}
    for w in WORKLOADS.values():
        seen.update(dict.fromkeys(w.jobs))
        seen.update(dict.fromkeys(w.warm_jobs()))
    return list(seen)


def job_key(job) -> str:
    return " ".join(job)
