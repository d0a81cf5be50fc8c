#!/usr/bin/env python3
"""Freeze the reference outputs the benchmark checks against.

Usage, from the repository root, at the commit whose outputs are the
reference:

    PYTHONPATH=src python3 bench/freeze.py --commit <id>

Writes bench/reference.json: every report each library workload variant
produces (sieve reports as max ratio and ratio sum), and the CLI character
pool with its L-values.  Regenerate only when a change is meant to alter
the numbers, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import inputs
from quartic_moments import moments
from quartic_moments.characters import characters_upto
from quartic_moments.lfunctions import lvalue_afe


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--commit", required=True, help="the commit the references come from")
    args = ap.parse_args()

    refs: dict = {"commit": args.commit, "first_moment_grid": {},
                  "second_moment_shifted": {}, "sieve_grid": {}}
    for v in range(inputs.VARIANTS):
        reports = {}
        for call in inputs.library_calls("first_moment_grid", v):
            rep = getattr(moments, call["fn"])(*call["args"], **call["kwargs"]).to_dict()
            reports[str(rep["Q"])] = rep
        refs["first_moment_grid"][str(v)] = reports
        (call,) = inputs.library_calls("second_moment_shifted", v)
        refs["second_moment_shifted"][str(v)] = moments.second_moment(
            *call["args"], **call["kwargs"]).to_dict()
        sieve = {}
        for call in inputs.library_calls("sieve_grid", v):
            rep = getattr(moments, call["fn"])(*call["args"], **call["kwargs"]).to_dict()
            sieve[f"{rep['kind']}:{rep['params'][0]}:{rep['params'][1]}"] = {
                "seed": rep["seed"], "max_ratio": rep["max_ratio"],
                "ratio_sum": math.fsum(rep["ratios"]),
            }
        refs["sieve_grid"][str(v)] = sieve
        print(f"variant {v} frozen", flush=True)

    chars = characters_upto(inputs.CLI_MAX_Q)
    step = len(chars) / inputs.CLI_POOL_SIZE
    pool = []
    for k in range(inputs.CLI_POOL_SIZE):
        chi = chars[int(k * step + step / 2)]
        rec = lvalue_afe(chi)
        pool.append({"q": rec.q, "a": rec.a, "b": rec.b, "re": rec.value.real,
                     "im": rec.value.imag, "err": rec.err_estimate})
    refs["cli_pool"] = pool
    out = Path(__file__).resolve().parent / "reference.json"
    out.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
