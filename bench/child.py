"""One fresh benchmark process: import the package, make the workload's
public calls, and write what happened as JSON.

Usage: python bench/child.py SPEC.json OUT.json

SPEC["mode"] is one of
  probe      time `import SPEC["module"]` and nothing else;
  workload   time the import, then each call in SPEC["calls"] (optionally
             traced), then -- outside the timed region -- check a seeded
             sample of L-values against the independent oracle;
  cli_check  read back a CLI cache file and evaluate the oracle on the
             characters the CLI calls computed.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import sys
import time


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _oracle(triples, t: float) -> list[dict]:
    from quartic_moments.characters import QuarticCharacter
    from quartic_moments.gaussint import GaussInt
    from quartic_moments.lfunctions import lvalue_afe, lvalue_direct

    out = []
    for q, a, b in triples:
        chi = QuarticCharacter(GaussInt(a, b), q)
        afe = lvalue_afe(chi, 1j * t)
        direct = lvalue_direct(chi, 0.5 + 1j * t)
        out.append({
            "q": q, "a": a, "b": b,
            "afe": [afe.value.real, afe.value.imag], "afe_err": afe.err_estimate,
            "direct": [direct.value.real, direct.value.imag],
            "direct_err": direct.err_estimate,
        })
    return out


def _spot_check(spec: dict) -> list[dict]:
    from quartic_moments.characters import characters_upto

    chars = [c for c in characters_upto(spec["hi"]) if spec["lo"] < c.q <= spec["hi"]]
    sample = random.Random(f"spot:{spec['seed']}").sample(chars, min(spec["count"], len(chars)))
    return _oracle(sorted((c.q, c.n.a, c.n.b) for c in sample), spec["t"])


def run_workload(spec: dict) -> dict:
    t0 = time.perf_counter()
    import quartic_moments  # noqa: F401  (the set-up being timed)
    from quartic_moments import moments

    import_s = time.perf_counter() - t0
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()
    calls = []
    for call in spec["calls"]:
        fn = getattr(moments, call["fn"])
        t0 = time.perf_counter()
        report = fn(*call["args"], **call["kwargs"]).to_dict()
        seconds = time.perf_counter() - t0
        text = json.dumps(report, sort_keys=True)
        calls.append({
            "fn": call["fn"], "args": call["args"], "seconds": seconds,
            "report": report, "sha256": hashlib.sha256(text.encode()).hexdigest(),
        })
    out = {"import_s": import_s, "calls": calls, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.dump(spec["spans_path"])
    if spec.get("spot_check"):
        out["spot_check"] = _spot_check(spec["spot_check"])
    return out


def run_cli_check(spec: dict) -> dict:
    from quartic_moments.cache import read_lvalue_cache

    rows = [
        {"q": r.q, "a": r.a, "b": r.b, "re": r.value.real, "im": r.value.imag,
         "method": r.method, "err": r.err_estimate}
        for r in read_lvalue_cache(spec["cache"])
    ]
    return {"rows": rows, "spot_check": _oracle(spec["chars"], 0.0)}


def main() -> None:
    spec_path, out_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as fh:
        spec = json.load(fh)
    if spec["mode"] == "probe":
        t0 = time.perf_counter()
        __import__(spec["module"])
        out = {"import_s": time.perf_counter() - t0}
    elif spec["mode"] == "workload":
        out = run_workload(spec)
    elif spec["mode"] == "cli_check":
        out = run_cli_check(spec)
    else:
        raise ValueError(f"unknown mode {spec['mode']!r}")
    with open(out_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
