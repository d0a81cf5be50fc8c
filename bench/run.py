#!/usr/bin/env python3
"""The quartic-moments benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload runs in fresh Python processes, one at a time, the way users
run the experiment scripts and the CLI.  Times are taken around the calls
into the package's public functions; every output is checked against
references frozen by `bench/freeze.py` and, for L-values, against the
independent oracle `lfunctions.lvalue_direct`.  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics named
in BENCHMARK.json -- the end-to-end ones with --trace 0, the per-layer ones
(from a separate traced run) with --trace 1.  The line before it holds the
details: inputs, report checksums, thread caps, versions and any failures.
See bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

import inputs

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("first_moment_grid", "second_moment_shifted", "sieve_grid", "cli_lvalue_cache")
CHILD_TIMEOUT_S = 150
RUN_BUDGET_S = 160  # no optional child starts after this, so a run ends within 180 s
MIN_PASSES = 2  # a median of one pass would carry the full pass-to-pass noise
SETUP_SAMPLES = 3  # import timings per run, from pass children and probes
IMPORTTIME_PROBES = 3
REL_TOL = 1e-6  # far above the certified error of every checked number
CLI_ABS_TOL = 1e-7  # CLI L-values are O(1); their certified error is ~2e-9
NOT_APPLICABLE = 1.0  # value of a metric on a workload it does not apply to
# Layers each workload's traced run is predicted to spend most self time in.
PREDICTED = {
    "first_moment_grid": ("gauss_sums", "characters"),
    "second_moment_shifted": ("lfunctions",),
    "sieve_grid": ("symbols",),
    "cli_lvalue_cache": ("import",),
}


class Child(NamedTuple):
    rc: int
    seconds: float  # spawn to exit
    peak_rss_mb: float
    stdout: str
    stderr: str


class Run:
    """One benchmark run: its scratch directory, child processes and tally."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: int):
        self.root, self.workload, self.seed, self.seconds = root, workload, seed, seconds
        self.variant = inputs.variant(seed)
        self.tmp = root / ".bench_tmp" / f"{workload}-{seed}-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.out_dir = root / ".bench_out"
        self.threads = str(len(os.sched_getaffinity(0)))
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": str(root / "src"),
            "PYTHONHASHSEED": "0",
            "PYTHONNOUSERSITE": "1",
            "OMP_NUM_THREADS": self.threads,
            "OPENBLAS_NUM_THREADS": self.threads,
            "MKL_NUM_THREADS": self.threads,
        })
        self.started = time.perf_counter()
        self.children = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.cli_outputs: dict[str, dict] = {}  # "q,a,b" -> the last JSON the CLI printed
        self.details: dict = {"workload": workload, "seed": seed, "variant": self.variant}

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; record it as failed unless ok."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def launch(self, argv: list[str]) -> Child:
        """Run one child process to completion."""
        k = self.children
        self.children += 1
        out_path, err_path = self.tmp / f"stdout-{k}", self.tmp / f"stderr-{k}"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        return Child(rc, seconds, usage.ru_maxrss / 1024.0, out_path.read_text(),
                     err_path.read_text())

    def python_child(self, spec: dict, python_flags: tuple = ()) -> tuple[Child, dict | None]:
        k = self.children
        spec_path, out_path = self.tmp / f"spec-{k}.json", self.tmp / f"out-{k}.json"
        spec_path.write_text(json.dumps(spec))
        child = self.launch([sys.executable, *python_flags, str(BENCH / "child.py"),
                             str(spec_path), str(out_path)])
        if child.rc != 0 or not out_path.exists():
            return child, None
        return child, json.loads(out_path.read_text())

    def spans_path(self, tag: str) -> str:
        return str(self.tmp / f"spans-{tag}.jsonl")

    def collect_spans(self) -> None:
        """Concatenate the children's span files into .bench_out/."""
        parts = sorted(self.tmp.glob("spans-*.jsonl"))
        if not parts:
            return
        self.out_dir.mkdir(exist_ok=True)
        with open(self.out_dir / f"{self.workload}.spans.jsonl", "w") as out:
            for part in parts:
                out.write(part.read_text())


def _tail(text: str) -> str:
    lines = [line for line in text.strip().splitlines() if line.strip()]
    return lines[-1][:300] if lines else ""


# ----------------------------------------------------------------------
# output checks against the frozen references and the oracle
# ----------------------------------------------------------------------


def _number(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _close(x, ref, scale) -> bool:
    return _number(x) and abs(x - ref) <= REL_TOL * scale


def check_report(run: Run, refs: dict, call: dict) -> None:
    try:
        ok = _matches_reference(run, refs, call["fn"], call["report"])
    except (KeyError, TypeError, IndexError):  # a report without the expected fields
        ok = False
    run.check(ok, f"{call['fn']}{tuple(call['args'])}: report differs from the reference")


def _matches_reference(run: Run, refs: dict, fn: str, report: dict) -> bool:
    if fn == "first_moment":
        ref = refs["first_moment_grid"][str(run.variant)].get(str(report["Q"]))
        ok = ref is not None and report["character_count"] == ref["character_count"]
        if ok:
            scale = abs(ref["predicted"])
            ok = (all(_close(report[k], ref[k], scale) for k in ("moment_re", "moment_im", "predicted"))
                  and _close(report["ratio"], ref["ratio"], 1.0))
    elif fn == "second_moment":
        ref = refs["second_moment_shifted"][str(run.variant)]
        scale = abs(ref["total"])
        ok = (report["Q"] == ref["Q"] and report["t"] == ref["t"]
              and _close(report["total"], ref["total"], scale)
              and [row[0] for row in report["growth_table"]] == [row[0] for row in ref["growth_table"]]
              and all(_close(a[1], b[1], scale)
                      for a, b in zip(report["growth_table"], ref["growth_table"]))
              and _close(report["fitted_exponent"], ref["fitted_exponent"], 1.0)
              and _close(report["bound_constant"], ref["bound_constant"], abs(ref["bound_constant"])))
    elif fn in ("sieve_ratio_quartic", "sieve_ratio_quadratic"):
        key = f"{report['kind']}:{report['params'][0]}:{report['params'][1]}"
        ref = refs["sieve_grid"][str(run.variant)].get(key)
        ok = (ref is not None and report["seed"] == ref["seed"]
              and len(report["ratios"]) == inputs.SIEVE_TRIALS
              and _close(report["max_ratio"], ref["max_ratio"], abs(ref["max_ratio"]))
              and _close(math.fsum(report["ratios"]), ref["ratio_sum"], abs(ref["ratio_sum"])))
    else:
        ok = False
    return ok


def check_oracle(run: Run, rows: list[dict]) -> float:
    """|AFE - direct| <= both certified errors; returns the largest AFE error."""
    devs = []
    for r in rows:
        dev = math.hypot(r["afe"][0] - r["direct"][0], r["afe"][1] - r["direct"][1])
        run.check(dev <= r["afe_err"] + r["direct_err"],
                  f"oracle: q={r['q']} a={r['a']} b={r['b']} |afe-direct|={dev:.3g} "
                  f"> {r['afe_err'] + r['direct_err']:.3g}")
        devs.append(dev)
    run.details["oracle_max_deviation"] = max(devs, default=None)
    return max((r["afe_err"] for r in rows), default=0.0)


# ----------------------------------------------------------------------
# library workloads: first_moment_grid, second_moment_shifted, sieve_grid
# ----------------------------------------------------------------------


def library_pass(run: Run, refs: dict, calls: list[dict], trace: bool = False,
                 tag: str = "pass") -> tuple[Child, dict | None]:
    spec = {"mode": "workload", "calls": calls, "trace": trace,
            "run_id": f"{run.workload}:{run.seed}:{tag}", "spans_path": run.spans_path(tag)}
    child, result = run.python_child(spec)
    if result is None:
        for call in calls:
            run.check(False, f"{call['fn']}{tuple(call['args'])}: child exited {child.rc}: "
                             f"{_tail(child.stderr)}")
        return child, None
    for call in result["calls"]:
        check_report(run, refs, call)
    digest = hashlib.sha256("".join(c["sha256"] for c in result["calls"]).encode()).hexdigest()
    shas = run.details.setdefault("report_sha256", [])
    if digest not in shas:
        shas.append(digest)
    return child, result


def spot_check(run: Run) -> tuple[float | None, float | None]:
    """Oracle check in its own child, outside any timed pass.  Returns
    (largest certified AFE error, the child's import seconds)."""
    spec = inputs.spot_check(run.workload, run.variant, run.seed)
    if spec is None:
        return None, None
    child, result = run.python_child({"mode": "workload", "calls": [], "spot_check": spec})
    if result is None:
        run.check(False, f"spot check: child exited {child.rc}: {_tail(child.stderr)}")
        return None, None
    run.details["spot_check"] = [[r["q"], r["a"], r["b"]] for r in result["spot_check"]]
    return check_oracle(run, result["spot_check"]), result["import_s"]


def import_probe(run: Run, module: str) -> float | None:
    child, result = run.python_child({"mode": "probe", "module": module})
    return None if result is None else result["import_s"]


def slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def cost_exponent(workload: str, result: dict) -> float:
    """first_moment_grid: per-Q first_moment seconds against Q.
    sieve_grid: quartic-sieve seconds summed over M, against Q."""
    if workload == "first_moment_grid":
        return slope([c["args"][0] for c in result["calls"]], [c["seconds"] for c in result["calls"]])
    per_q: dict[int, float] = {}
    for c in result["calls"]:
        if c["fn"] == "sieve_ratio_quartic":
            per_q[c["args"][0]] = per_q.get(c["args"][0], 0.0) + c["seconds"]
    return slope(list(per_q), list(per_q.values()))


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten calls beyond it, as
    (value, percentile); the maximum when there are ten calls or fewer."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def latency_metrics(run: Run, latencies: list[float]) -> dict:
    tail, pct = tail_latency(latencies)
    run.details["calls"] = {"count": len(latencies), "tail_percentile": pct}
    return {"call_p50_s": statistics.median(latencies), "call_tail_s": tail}


def measure_library(run: Run, refs: dict) -> dict:
    calls = inputs.library_calls(run.workload, run.variant)
    run.details["inputs"] = inputs.describe(run.workload, run.variant)
    passes, latencies, durations = [], [], []
    t0 = time.perf_counter()
    while True:
        child, result = library_pass(run, refs, calls, tag=f"pass{len(durations)}")
        durations.append(child.seconds)
        if result is not None:
            passes.append(result)
            latencies.append(child.seconds)
        if (len(durations) >= MIN_PASSES
                and time.perf_counter() - t0 + statistics.median(durations) > run.seconds):
            break
    if not passes:
        return {}
    cert_err, import_s = spot_check(run)
    imports = [p["import_s"] for p in passes] + ([import_s] if import_s is not None else [])
    while len(imports) < SETUP_SAMPLES and run.elapsed() < RUN_BUDGET_S:
        sample = import_probe(run, "quartic_moments")
        run.check(sample is not None, "import probe failed")
        if sample is not None:
            imports.append(sample)
    run.details["passes"] = len(passes)
    run.details["pass_wall_s"] = [sum(c["seconds"] for c in p["calls"]) for p in passes]
    metrics = {
        "wall_s": statistics.median(run.details["pass_wall_s"]),
        "setup_s": statistics.median(imports),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "cert_err_max": NOT_APPLICABLE if cert_err is None else cert_err,
        "cost_exponent_q": NOT_APPLICABLE,
    }
    if run.workload in ("first_moment_grid", "sieve_grid"):
        metrics["cost_exponent_q"] = statistics.median(cost_exponent(run.workload, p) for p in passes)
    metrics.update(latency_metrics(run, latencies))
    return metrics


# ----------------------------------------------------------------------
# cli_lvalue_cache
# ----------------------------------------------------------------------


def cli_pass(run: Run, pool: list[dict], sequence: list[int], tag: str,
             traced: bool = False) -> tuple[list[float], list[float], list[dict], str]:
    """One sequence of CLI calls sharing a fresh cache file.  Returns the
    latencies and peak RSS of the calls that exited 0 with a JSON report
    (checked or not), their traced summaries, and the cache path."""
    cache = str(run.tmp / f"cache-{tag}.csv")
    latencies, rss, summaries = [], [], []
    for k, idx in enumerate(sequence):
        ref = pool[idx]
        args = ["lvalue", "--q", str(ref["q"]), "--a", str(ref["a"]), "--b", str(ref["b"]),
                "--cache", cache]
        if traced:
            out = run.tmp / f"launch-{tag}-{k}.json"
            argv = [sys.executable, str(BENCH / "cli_launcher.py"), str(out),
                    f"{run.workload}:{run.seed}:{tag}:{k}", run.spans_path(f"{tag}-{k:02d}"),
                    "--", *args]
        else:
            argv = [sys.executable, "-m", "quartic_moments.cli", *args]
        child = run.launch(argv)
        what = f"cli lvalue q={ref['q']} a={ref['a']} b={ref['b']}"
        try:
            payload = json.loads(child.stdout.strip().splitlines()[-1]) if child.rc == 0 else None
        except (ValueError, IndexError):
            payload = None
        ok = isinstance(payload, dict) and (
            (payload.get("q"), payload.get("a"), payload.get("b")) == (ref["q"], ref["a"], ref["b"])
            and payload.get("method") == "afe"
            and _close(payload.get("re"), ref["re"], CLI_ABS_TOL / REL_TOL)
            and _close(payload.get("im"), ref["im"], CLI_ABS_TOL / REL_TOL)
            and _number(payload.get("err"))
        )
        run.check(ok, f"{what}: exit {child.rc}, output {child.stdout.strip()[:200]!r} "
                      f"{_tail(child.stderr)}")
        if not isinstance(payload, dict):
            continue
        latencies.append(child.seconds)
        rss.append(child.peak_rss_mb)
        run.cli_outputs[f"{ref['q']},{ref['a']},{ref['b']}"] = payload
        if traced:
            summaries.append(json.loads(out.read_text()))
    return latencies, rss, summaries, cache


def cli_check(run: Run, pool: list[dict], sequence: list[int], cache: str) -> float | None:
    """Read the last cache file back through read_lvalue_cache, compare it
    with the calls' outputs, and check the whole character pool against the
    oracle.  Returns the largest certified error seen."""
    triples = sorted({(pool[i]["q"], pool[i]["a"], pool[i]["b"]) for i in sequence})
    child, result = run.python_child({"mode": "cli_check", "cache": cache,
                                      "chars": [[p["q"], p["a"], p["b"]] for p in pool]})
    if result is None:
        run.check(False, f"cli cache read-back: child exited {child.rc}: {_tail(child.stderr)}")
        return None
    outputs = run.cli_outputs
    rows = {(r["q"], r["a"], r["b"]): r for r in result["rows"]}
    ok = set(rows) == set(triples) and all(
        (rows[t]["re"], rows[t]["im"]) == (printed.get("re"), printed.get("im"))
        for t in triples if (printed := outputs.get(f"{t[0]},{t[1]},{t[2]}")) is not None)
    run.check(ok, "cli cache read-back differs from the calls' outputs")
    errs = [p["err"] for p in outputs.values() if _number(p.get("err"))]
    worst = check_oracle(run, result["spot_check"])
    return max(errs + [worst])


def measure_cli(run: Run, refs: dict) -> dict:
    pool = refs["cli_pool"]
    sequence = inputs.cli_sequence(run.seed, len(pool))
    run.details["cli_sequence"] = [[pool[i]["q"], pool[i]["a"], pool[i]["b"]] for i in sequence]
    latencies, rss, passes = [], [], []
    cache = None
    t0 = time.perf_counter()
    while True:
        lat, r, _, cache = cli_pass(run, pool, sequence, tag=f"pass{len(passes)}")
        passes.append(sum(lat) if len(lat) == len(sequence) else None)
        latencies += lat
        rss += r
        durations = [p for p in passes if p is not None] or [time.perf_counter() - t0]
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - t0 + statistics.median(durations) > run.seconds):
            break
    complete = [p for p in passes if p is not None]
    if not complete:
        return {}
    cert_err = cli_check(run, pool, sequence, cache)
    imports = []
    while len(imports) < SETUP_SAMPLES and run.elapsed() < RUN_BUDGET_S:
        sample = import_probe(run, "quartic_moments.cli")
        run.check(sample is not None, "import probe failed")
        if sample is not None:
            imports.append(sample)
    run.details["passes"] = len(complete)
    run.details["pass_wall_s"] = complete
    metrics = {
        "wall_s": statistics.median(complete),
        "setup_s": statistics.median(imports) if imports else float("nan"),
        "peak_rss_mb": statistics.median(rss),
        "cert_err_max": NOT_APPLICABLE if cert_err is None else cert_err,
        "cost_exponent_q": NOT_APPLICABLE,
    }
    metrics.update(latency_metrics(run, latencies))
    return metrics


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------


def merge_summaries(summaries: list[dict]) -> dict:
    out = {"spans": {}, "counted": {}, "work": {}, "v_keys": set()}
    for s in summaries:
        for part in ("spans", "counted"):
            for name, vals in s[part].items():
                acc = out[part].setdefault(name, [0, 0.0, 0.0])
                for i, v in enumerate(vals):
                    acc[i] += v
        for key, v in s["work"].items():
            out["work"][key] = out["work"].get(key, 0) + v
        out["v_keys"].update(s["v_keys"])
    return out


def importtime_probe(run: Run) -> tuple[float, float] | None:
    """(import seconds of quartic_moments.lfunctions by -X importtime,
    seconds to import quartic_moments.cli), from one fresh process."""
    child, result = run.python_child({"mode": "probe", "module": "quartic_moments.cli"},
                                     python_flags=("-X", "importtime"))
    if result is None:
        return None
    for line in child.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "quartic_moments.lfunctions":
            return int(parts[1]) / 1e6, result["import_s"]
    return None


def layer_self_seconds(summary: dict) -> dict:
    layers: dict[str, float] = {}
    for part in ("spans", "counted"):
        for name, (_, _, self_s) in summary[part].items():
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + self_s
    return layers


def per_layer_metrics(summary: dict, extra: dict, names: list[str]) -> dict:
    metrics = {}
    fields = {"calls": 0, "s": 1, "self_s": 2}
    for name in names:
        if name in extra:
            metrics[name] = extra[name]
            continue
        base, _, field = name.rpartition(".")
        if name == "lfunctions.v_values.distinct_ratio":
            calls = summary["spans"].get("lfunctions.v_values", [0])[0]
            metrics[name] = len(summary["v_keys"]) / calls if calls else 0.0
        elif field in fields:
            vals = summary["spans"].get(base) or summary["counted"].get(base) or [0, 0.0, 0.0]
            metrics[name] = vals[fields[field]]
        else:
            metrics[name] = summary["work"].get(name, 0)
    return metrics


def measure_traced(run: Run, refs: dict, names: list[str]) -> dict:
    extra = {"moments.pool_speedup_w2": 0.0}
    if run.workload == "cli_lvalue_cache":
        pool = refs["cli_pool"]
        sequence = inputs.cli_sequence(run.seed, len(pool))
        base_lat, _, _, _ = cli_pass(run, pool, sequence, tag="base")
        traced_lat, _, launches, cache = cli_pass(run, pool, sequence, tag="traced", traced=True)
        cli_check(run, pool, sequence, cache)
        summary = merge_summaries([s["trace"] for s in launches])
        base_wall, traced_wall = sum(base_lat), sum(traced_lat)
        cli_imports = [s["import_s"] for s in launches]
        layers = layer_self_seconds(summary)
        layers["import"] = sum(cli_imports)
    else:
        calls = inputs.library_calls(run.workload, run.variant)
        _, base = library_pass(run, refs, calls, tag="base")
        _, traced = library_pass(run, refs, calls, trace=True, tag="traced")
        spot_check(run)
        if base is None or traced is None:
            return {}
        summary = merge_summaries([traced["trace"]])
        base_wall = sum(c["seconds"] for c in base["calls"])
        traced_wall = sum(c["seconds"] for c in traced["calls"])
        cli_imports = []
        layers = layer_self_seconds(summary)
        if run.workload == "first_moment_grid":
            extra["moments.pool_speedup_w2"] = pool_speedup(run, refs)
    probes = [p for p in (importtime_probe(run) for _ in range(IMPORTTIME_PROBES)) if p]
    run.check(len(probes) == IMPORTTIME_PROBES, "-X importtime probe failed")
    extra["lfunctions.import_s"] = statistics.median(p[0] for p in probes) if probes else 0.0
    extra["cli.import_s"] = statistics.median([p[1] for p in probes] + cli_imports) if probes else 0.0
    extra["trace.overhead_s"] = traced_wall - base_wall
    run.details["untraced_wall_s"], run.details["traced_wall_s"] = base_wall, traced_wall
    ranked = sorted(layers.items(), key=lambda kv: -kv[1])
    predicted = PREDICTED[run.workload]
    run.details["layer_self_s"] = dict(ranked)
    run.details["dominant"] = {
        "predicted": list(predicted),
        "observed": [name for name, _ in ranked[: len(predicted)]],
        "match": {name for name, _ in ranked[: len(predicted)]} == set(predicted),
    }
    run.collect_spans()
    return per_layer_metrics(summary, extra, names)


def pool_speedup(run: Run, refs: dict) -> float:
    """first_moment at the largest Q from cold with workers=1 and workers=2;
    the two reports must be byte-identical."""
    Q = inputs.first_moment_grid(run.variant)[-1]
    results = []
    for workers in (1, 2):
        call = {"fn": "first_moment", "args": [Q], "kwargs": {"workers": workers}}
        _, result = library_pass(run, refs, [call], tag=f"workers{workers}")
        results.append(result)
    if None in results:
        return 0.0
    run.check(results[0]["calls"][0]["sha256"] == results[1]["calls"][0]["sha256"],
              "first_moment reports differ between workers=1 and workers=2")
    w1, w2 = (r["calls"][0]["seconds"] for r in results)
    run.details["pool_seconds"] = {"workers1": w1, "workers2": w2}
    return w1 / w2


# ----------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "quartic_moments" / "__init__.py").is_file():
        print("bench: run from the root of a quartic-moments checkout "
              "(src/quartic_moments is missing)", file=sys.stderr)
        return 2
    config = json.loads((root / "BENCHMARK.json").read_text())
    refs = json.loads((BENCH / "reference.json").read_text())
    # the build: byte-compile once, so no timed import pays for compilation
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"],
                           cwd=root, capture_output=True, text=True)
    if build.returncode != 0:
        print(f"bench: byte-compiling failed:\n{build.stdout}{build.stderr}", file=sys.stderr)
        return 2

    # a terminated run still kills and reaps its current child (see Run.launch)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = Run(root, args.workload, args.seed, args.seconds)
    run.details.update({
        "threads_cap": run.threads,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    })
    try:
        if args.trace:
            section = config["per_layer"]
            values = measure_traced(run, refs, [m["name"] for m in section])
        else:
            section = config["end_to_end"]
            measure = measure_cli if args.workload == "cli_lvalue_cache" else measure_library
            values = measure(run, refs)
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)
    run.details["problems"] = run.problems
    print(json.dumps({"details": run.details}, sort_keys=True))
    if not values or any(not math.isfinite(values.get(m["name"], math.nan)) for m in section):
        print("bench: no complete pass, so no metrics; see the details above", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
