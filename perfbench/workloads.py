"""Seeded job lists for the benchmark workloads.

A job is one experiment config.  The seed picks only values that leave the
amount of work unchanged (random-init seeds, rotation steps coprime to k,
permutations, block patterns, job order), so runs on different seeds load
the layers the same way.  Sizes are fixed per workload.

This module imports nothing from lenslab: it runs in the orchestrating
process as well as in the workers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Callable

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "inprocess" (run_experiment) or "cli" (lens-lab run)
    build: Callable      # random.Random -> list of job dicts
    tail_percentile: int
    min_samples: int     # enough for ten samples beyond the tail percentile


def _job(experiment, system="", backend="rational", **params):
    return {
        "experiment": experiment,
        "system": system,
        "backend": backend,
        "parameters": {k: str(v) for k, v in params.items()},
    }


def _unit(rng, k):
    """A rotation step coprime to k: one cycle, so the work does not vary."""
    return rng.choice([s for s in range(1, k) if gcd(s, k) == 1])


def _rotation(rng, system):
    """Complete a "rot:k=N" spec with a seeded step; other specs pass through."""
    if not system.startswith("rot:"):
        return system
    k = int(system.split("=")[1])
    return f"{system},s={_unit(rng, k)}"


def _unipotent(rng, r):
    """Upper-triangular automorphism matrix with unit diagonal entries."""
    rows = []
    for i in range(r):
        row = [0] * r
        row[i] = 1
        for j in range(i + 1, r):
            row[j] = rng.randrange(4)
        rows.append(",".join(map(str, row)))
    return ";".join(rows)


def _seed(rng):
    return rng.randrange(1, 10**6)


def _perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return ",".join(map(str, p))


def _blocks(rng, k, parts):
    """Distinct block sizes 1..parts-1 plus the remainder, in seeded order."""
    sizes = list(range(1, parts)) + [k - parts * (parts - 1) // 2]
    rng.shuffle(sizes)
    return ",".join(map(str, sizes))


def _half_block(rng, n):
    return ",".join(rng.choice(("0", "1/2")) for _ in range(n))


def _rational_permutation(rng):
    jobs = []
    for system, n_values, n_initials in (("rot:k=16", "10,50", 2),
                                         ("rot:k=64", "10", 1),
                                         ("odo:m=5", "10,20", 1)):
        jobs.append(_job("cesaro-barycenter", _rotation(rng, system),
                         seed=_seed(rng), N_values=n_values, n_initials=n_initials))
    for system, n_steps in (("rot:k=48", 8), ("odo:m=6", 6), ("rot:k=256", 1)):
        jobs.append(_job("one-sided-limit", _rotation(rng, system),
                         n_steps=n_steps, init="random", seed=_seed(rng)))
    for k, parts in ((21, 6), (45, 9)):
        jobs.append(_job("rigidity-sweep", _rotation(rng, f"rot:k={k}"),
                         blocks=_blocks(rng, k, parts), n_max=k,
                         expect_return_at=k))
    for m, low in ((4, 4), (5, 8), (6, 4)):
        jobs.append(_job("periodic-commuters", family="odometer", m=m,
                         pi=_perm(rng, low)))
    for k in (12, 16):
        jobs.append(_job("fixed-points", _rotation(rng, f"rot:k={k}")))
    for k, L in ((8, 256), (16, 64), (32, 128), (64, 64)):
        jobs.append(_job("iet-realize", k=k, L=L, seed=_seed(rng)))
    for moduli in ("8,8", "6,6"):
        jobs.append(_job("group-embedding", moduli=moduli,
                         matrix=_unipotent(rng, len(moduli.split(",")))))
    q = rng.randrange(3, 12)
    alpha = f"{rng.randrange(1, q)}/{q}"
    start = ",".join(f"{rng.randrange(0, d)}/{d}" for d in (3, 5, 7))
    jobs.append(_job("skew-orbit", f"skew:alpha={alpha}", start=start, N=10))
    return jobs


def _rational_stochastic(rng):
    jobs = []
    for d, L, n_max, zero_by in ((2, 4, 5, 4), (2, 5, 6, 5), (2, 6, 7, 6),
                                 (3, 3, 4, 3), (4, 3, 4, 3), (2, 7, 2, None)):
        params = {"n_max": n_max}
        if zero_by is not None:
            params["expect_zero_by"] = zero_by
        jobs.append(_job("mixing-profile", f"bern:d={d},L={L}", **params))
    for L, n_steps, product_by in ((4, 8, 8), (5, 10, 10), (6, 2, None)):
        params = {"n_steps": n_steps, "init": "random", "seed": _seed(rng)}
        if product_by is not None:
            params["expect_product_by"] = product_by
        jobs.append(_job("one-sided-limit", f"bern:d=2,L={L}", **params))
    for L, n_values in ((4, "10,20"), (5, "10"), (6, "5")):
        jobs.append(_job("cesaro-barycenter", f"bern:d=2,L={L}", seed=_seed(rng),
                         N_values=n_values, n_initials=1))
    for L, parts, n_max in ((4, 5, 8), (5, 7, 6), (6, 10, 3)):
        jobs.append(_job("rigidity-sweep", f"bern:d=2,L={L}",
                         blocks=_blocks(rng, 2**L, parts), n_max=n_max))
    for n in (6, 7, 8):
        jobs.append(_job("entropy-factor", block=_half_block(rng, n)))
    for d, L in ((2, 2), (2, 3), (3, 2)):
        k = d**L
        jobs.append(_job("transitivity-witness", d=d, L=L, sigma=_perm(rng, k),
                         pi=_perm(rng, k)))
    for d, ell, L in ((2, 2, 3), (3, 1, 4)):
        jobs.append(_job("periodic-commuters", family="bernoulli", d=d,
                         ell=ell, L=L))
    return jobs


# The registered experiments; each has one shipped config in configs/.
EXPERIMENTS = (
    "cesaro-barycenter", "entropy-factor", "fixed-points", "group-embedding",
    "iet-realize", "mixing-profile", "one-sided-limit", "periodic-commuters",
    "rigidity-sweep", "skew-orbit", "transitivity-witness",
)


def _cli_configs(rng):
    return [{"config": f"configs/{name}.cfg"} for name in EXPERIMENTS]


WORKLOADS = {
    w.name: w for w in (
        Workload("rational-permutation", "inprocess", _rational_permutation, 90, 100),
        Workload("rational-stochastic", "inprocess", _rational_stochastic, 90, 100),
        Workload("cli-configs", "cli", _cli_configs, 75, 40),
    )
}


def make_jobs(workload: str, seed: int) -> list[dict]:
    """Jobs of one pass, in seeded order, each with a stable id."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload].build(rng)
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        if "config" in job:
            job["id"] = job["config"].split("/")[-1].removesuffix(".cfg")
        else:
            job["id"] = f"{i:02d}-{job['experiment']}"
    return jobs
