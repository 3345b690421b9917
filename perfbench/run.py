"""nilbott benchmark: one command for every workload and metric.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]

Each workload runs in a fresh single-threaded worker process as a closed
loop with one client; every output is checked by an oracle that does not
use the engine.  With --trace 0 the end-to-end metrics are printed; with
--trace 1 the workload's pass runs untraced once and traced twice, and
the per-layer metrics are printed.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
A timed run lasts run_seconds of BENCHMARK.json, the one place that sets
it.  See perfbench/README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBE = HERE / "setup_probe.py"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))
from tracer import COUNTS, EXACT_COUNTS, SPAN_NAMES  # noqa: E402

WORKLOADS = ("towers-small", "towers-bigk", "freeness")
SETUP_RUNS = 11
#: set-up time is reported for a host where the reference import takes this
SETUP_REF_NOMINAL_S = 0.012
#: the whole invocation stays below this many seconds per workload
BUDGET_S = 170.0


class BenchError(Exception):
    pass


class Runner:
    """Runs benchmark processes against one deadline; each child is
    waited for, and killed if it outlives the deadline.  Children read
    and write byte code only under perfbench/out/pycache, so set-up is
    always measured with the byte code cached, as an installed package
    has it."""

    def __init__(self, budget_s: float):
        self.deadline = monotonic() + budget_s
        self.env = dict(os.environ, PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def run(self, *args, script=WORKER) -> dict:
        left = self.deadline - monotonic()
        if left <= 1:
            raise BenchError("time budget exhausted before " + " ".join(args))
        try:
            proc = subprocess.run(
                [sys.executable, str(script), *args],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=left,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{script.name} {' '.join(args)} timed out") from None
        if proc.returncode != 0:
            raise BenchError(f"{script.name} {' '.join(args)} failed:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_times(self, runs: int):
        """(package, reference) fresh-process import times, taken in
        alternation so each pair sees the same host speed."""
        pairs = []
        for _ in range(runs + 1):  # the first pair fills the byte-code cache
            ref = self.run("reference", script=SETUP_PROBE)["import_s"]
            pkg = self.run("nilbott", script=SETUP_PROBE)["import_s"]
            pairs.append((pkg, ref))
        return pairs[1:]


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond
    it (nearest rank), with that percentile and the sample count."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(0, n - 11)
    return ordered[idx], 100.0 * (idx + 1) / n, n


def measure(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    runner = Runner(BUDGET_S)
    OUT.mkdir(exist_ok=True)
    setups = runner.setup_times(SETUP_RUNS)
    res = runner.run("timed", "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds))
    lat, raw = res.pop("latencies_ms"), res.pop("raw_latencies_ms")
    tail_ms, tail_pct, n = tail(lat)
    metrics = {
        "setup_s": (SETUP_REF_NOMINAL_S * statistics.median(p / r for p, r in setups), "s"),
        "items_per_s": (1000 * n / sum(lat), "1/s"),
        "item_p50_ms": (statistics.median(lat), "ms"),
        "item_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (res["rss_mb"], "MB"),
    }
    info = dict(
        res,
        error_rate=res["failed"] / res["attempted"],
        tail_pct=tail_pct,
        tail_samples=n,
        setup_ref_s=statistics.median(r for _, r in setups),
        as_measured={
            "setup_s": statistics.median(p for p, _ in setups),
            "items_per_s": 1000 * n / sum(raw),
            "item_p50_ms": statistics.median(raw),
            "item_tail_ms": tail(raw)[0],
        },
    )
    return metrics, info


def _baseline_counts(workload: str, seed: int):
    path = HERE / "baseline.json"
    if not path.exists():
        return None
    entry = json.loads(path.read_text()).get("trace_counts", {}).get(workload)
    if entry and entry["seed"] == seed:
        return entry
    return None


def measure_traced(workload: str, seed: int) -> tuple[dict, dict]:
    runner = Runner(BUDGET_S)
    OUT.mkdir(exist_ok=True)
    plain = runner.run("plain", "--workload", workload, "--seed", str(seed))
    traced = [
        runner.run("traced", "--workload", workload, "--seed", str(seed),
                   "--spans", str(OUT / f"spans-{workload}-seed{seed}-{i}.jsonl"))
        for i in (1, 2)
    ]
    first = traced[0]
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (first["calls"].get(name, 0), "count")
        metrics[f"{name}.self_s"] = (first["self_s"].get(name, 0.0), "s")
    counts = first["counts"]
    for name in COUNTS:
        metrics[name] = (counts[name], "count")
    letters = counts["polycyclic.substitute.letters_in"]
    ratio = counts["words.syllables_built"] / letters if letters else 0.0
    metrics["words.syllables_per_letter"] = (ratio, "ratio")
    for key, ms in plain["scaling_ms"].items():
        metrics[f"scaling.classify_ms.{key}"] = (ms, "ms")
    overhead = first["sum_ms"] / plain["sum_ms"] - 1
    metrics["trace.overhead_frac"] = (overhead, "ratio")

    exact = [{name: t["counts"][name] for name in EXACT_COUNTS} for t in traced]
    repeat_ok = exact[0] == exact[1] and traced[0]["fingerprint"] == traced[1]["fingerprint"]
    info = {
        "plain_wall_s": plain["wall_s"],
        "traced_wall_s": [t["wall_s"] for t in traced],
        "fingerprint": first["fingerprint"],
        "exact_counts": exact[0],
        "exact_counts_repeat": repeat_ok,
        "missing_targets": first["missing"],
        "spans": first["spans"],
        "shares": {n: 1000 * first["self_s"].get(n, 0.0) / first["sum_raw_ms"]
                   for n in SPAN_NAMES},
        "attempted": plain["attempted"] + sum(t["attempted"] for t in traced),
        "failed": plain["failed"] + sum(t["failed"] for t in traced),
        "errors": plain["errors"] + [e for t in traced for e in t["errors"]],
    }
    base = _baseline_counts(workload, seed)
    if base is not None:
        info["baseline_counts_match"] = (
            base["fingerprint"] == info["fingerprint"] and base["counts"] == exact[0]
        )
    return metrics, info


def _print_metrics(workload, metrics):
    for name, (value, unit) in metrics.items():
        print(f"{workload:14s} {name:42s} {value:14.6g} {unit}")


def _print_split(workload, info):
    shares = info["shares"]
    top = sorted(shares.items(), key=lambda kv: -kv[1])[:5]
    for name, share in top:
        print(f"{workload:14s} self-time share {name:34s} {100 * share:6.1f}%")
    if not info["exact_counts_repeat"]:
        print(f"{workload:14s} EXACT COUNTS DIFFER between two traced runs")
    if info.get("baseline_counts_match") is False:
        print(f"{workload:14s} exact counts or inputs differ from perfbench/baseline.json: "
              "inputs or semantics changed, so timings are not comparable as a speed-up")
    for target in info["missing_targets"]:
        print(f"{workload:14s} trace target not found: {target}")


def run_one(workload, seed, seconds, trace):
    if trace:
        metrics, info = measure_traced(workload, seed)
        attempted, failed = info["attempted"], info["failed"]
        correct = failed == 0 and info["exact_counts_repeat"]
        _print_metrics(workload, metrics)
        _print_split(workload, info)
    else:
        metrics, info = measure(workload, seed, seconds)
        attempted, failed = info["attempted"], info["failed"]
        correct = failed == 0
        _print_metrics(workload, metrics)
        print(f"{workload:14s} {'error_rate':42s} {info['error_rate']:14.6g} ratio")
        print(f"{workload:14s} item_tail_ms is p{info['tail_pct']:.2f} of "
              f"{info['tail_samples']} items; {info['passes']} passes, "
              f"{info['attempted']} items run, {info['rejected']} expected rejections")
        print(f"{workload:14s} as measured, before host-speed correction (reference "
              f"median {info['ref_ms_median']:.4f} ms, set-up reference "
              f"{info['setup_ref_s']:.4f} s): " + ", ".join(
                  f"{k} {v:.6g}" for k, v in info["as_measured"].items()))
    for err in info["errors"]:
        print(f"{workload:14s} WRONG: {err}")
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "trace": trace,
              "metrics": {k: v for k, (v, _) in metrics.items()}, "info": info}
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return correct, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nilbott benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="accepted only if equal to run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nilbott" / "__init__.py").is_file():
        print(f"error: no nilbott sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = json.loads(SPEC.read_text())["run_seconds"]
    if args.seconds not in (None, seconds):
        print(f"error: --seconds {args.seconds} differs from run_seconds {seconds} in "
              f"{SPEC.name}; the baseline and bounds hold for that duration only",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ok, att, fail, met = run_one(name, args.seed, seconds, bool(args.trace))
            correct, attempted, failed = correct and ok, attempted + att, failed + fail
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in met.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
