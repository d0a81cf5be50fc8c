"""Workload inputs generated from the benchmark seed.

The program only ever receives what these functions return.  Library
workloads draw one of VARIANTS small perturbations of their inputs, so the
cost of a run hardly depends on the seed and every input has a reference
frozen by `freeze.py`.  The CLI workload draws its call sequence from a
frozen pool of characters.
"""

from __future__ import annotations

import hashlib
import random

VARIANTS = 8
FIRST_MOMENT_GRID = (1000, 2000, 4000, 8000)
SECOND_MOMENT_Q = 1000
SECOND_MOMENT_T = 5.0
SIEVE_GRID = (32, 64, 128, 256, 512)
SIEVE_TRIALS = 20
CLI_CALLS = 10
CLI_POOL_SIZE = 32
CLI_MAX_Q = 16000
SPOT_CHECKS = 16


def variant(seed: int) -> int:
    digest = hashlib.sha256(f"quartic-moments-bench:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % VARIANTS


def first_moment_grid(v: int) -> list[int]:
    """The Q grid, each point moved up by v per mille (under 1%)."""
    return [Q + Q * v // 1000 for Q in FIRST_MOMENT_GRID]


def second_moment_t(v: int) -> float:
    return SECOND_MOMENT_T + v / 16


def sieve_rng_seed(v: int) -> int:
    return 1 + v


def library_calls(workload: str, v: int) -> list[dict]:
    """The public calls one pass of a library workload makes, in order."""
    if workload == "first_moment_grid":
        return [{"fn": "first_moment", "args": [Q], "kwargs": {}} for Q in first_moment_grid(v)]
    if workload == "second_moment_shifted":
        return [{"fn": "second_moment", "args": [SECOND_MOMENT_Q],
                 "kwargs": {"t": second_moment_t(v)}}]
    if workload == "sieve_grid":
        rng_seed = sieve_rng_seed(v)
        calls = [
            {"fn": "sieve_ratio_quartic", "args": [Q, M, SIEVE_TRIALS, rng_seed], "kwargs": {}}
            for Q in SIEVE_GRID for M in SIEVE_GRID
        ]
        calls += [
            {"fn": "sieve_ratio_quadratic", "args": [M, N, SIEVE_TRIALS, rng_seed],
             "kwargs": {"matrix_limit": max(SIEVE_GRID)}}
            for M in SIEVE_GRID for N in SIEVE_GRID
        ]
        return calls
    raise ValueError(f"no library calls for workload {workload!r}")


def describe(workload: str, v: int) -> dict:
    """The generated inputs of a library workload, for the run's details."""
    if workload == "first_moment_grid":
        return {"Q": first_moment_grid(v)}
    if workload == "second_moment_shifted":
        return {"Q": SECOND_MOMENT_Q, "t": second_moment_t(v)}
    return {"grid": list(SIEVE_GRID), "trials": SIEVE_TRIALS, "rng_seed": sieve_rng_seed(v)}


def spot_check(workload: str, v: int, seed: int) -> dict | None:
    """Which characters the oracle check samples: conductors in (lo, hi],
    the top of the largest family the workload evaluates."""
    if workload == "first_moment_grid":
        Q = first_moment_grid(v)[-1]
        return {"lo": 3 * Q // 2, "hi": 2 * Q, "count": SPOT_CHECKS, "seed": seed, "t": 0.0}
    if workload == "second_moment_shifted":
        Q = SECOND_MOMENT_Q
        return {"lo": Q // 2, "hi": Q, "count": SPOT_CHECKS, "seed": seed,
                "t": second_moment_t(v)}
    return None


def cli_sequence(seed: int, pool_size: int) -> list[int]:
    """Indices into the frozen CLI pool, drawn with replacement, so that
    some calls rewrite a row already in the cache file."""
    rng = random.Random(f"cli:{seed}")
    return [rng.randrange(pool_size) for _ in range(CLI_CALLS)]
