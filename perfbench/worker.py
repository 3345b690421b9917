"""One benchmark process: timed passes, or one plain or traced pass.
Prints one JSON object on stdout.

    python3 perfbench/worker.py timed  --workload W --seed N --seconds S
    python3 perfbench/worker.py plain  --workload W --seed N
    python3 perfbench/worker.py traced --workload W --seed N --spans FILE

`timed` repeats the workload's pass, one item at a time (one client),
until S seconds have passed, after at least one whole pass; each item's
latency is the median over the passes that reached it.  `plain` and
`traced` make the pass once, untraced and traced.

Host-speed correction: the machines this runs on share their cores, and
their speed drifts by up to a factor of two for seconds to minutes.
Before every item the worker times a fixed reference routine that never
touches the engine.  Each item's time is scaled by REF_NOMINAL_MS over
the median reference time of the nine items around it, which gives its
time on a host where the reference takes REF_NOMINAL_MS.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"

REF_NOMINAL_MS = 1.0
REF_STEPS = 1800
REF_WINDOW = 4  # items on each side whose reference times are pooled


def _ref_step(acc, a):
    return (acc[0] + a[0], acc[1] + a[1], acc[2] + a[2] + acc[0] * a[1])


def reference_ms() -> float:
    """Time of a fixed pure-Python routine (tuple arithmetic, calls and a
    dict, like the engine's inner loops), with the collector paused so
    the engine's heap does not affect it."""
    gc.disable()
    try:
        start = perf_counter()
        acc, seen = (0, 0, 0), {}
        for i in range(REF_STEPS):
            acc = _ref_step(acc, (i % 5 - 2, i % 3 - 1, i % 7 - 3))
            seen[acc[:2]] = seen.get(acc[:2], 0) + 1
        return (perf_counter() - start) * 1000
    finally:
        gc.enable()


class Loop:
    """Closed loop over one pass of items; the oracle checks every
    outcome outside the timed call."""

    def __init__(self, items, tracer=None):
        from workloads import check, describe, run_item

        self.items = items
        self.samples = [[] for _ in items]  # corrected, ms
        self.raw_samples = [[] for _ in items]  # as measured, ms
        self.ref_ms: list[float] = []
        self.attempted = self.failed = self.rejected = self.passes = 0
        self.errors: list[str] = []
        self._run, self._check, self._describe = run_item, check, describe
        self._tracer = tracer

    def run(self, seconds=None) -> float:
        """Make passes until `seconds` have passed (one pass if None);
        returns the wall time."""
        start = perf_counter()
        while True:
            refs, times = [], []
            for i, item in enumerate(self.items):
                if self.passes and perf_counter() - start >= seconds:
                    break
                refs.append(reference_ms())
                if self._tracer is not None:
                    self._tracer.item = i
                t0 = perf_counter()
                try:
                    out = self._run(item)
                except Exception as exc:  # judged by the oracle below
                    out = exc
                times.append((perf_counter() - t0) * 1000)
                self._record(item, out)
            self._fold(refs, times)
            if len(times) < len(self.items):
                return perf_counter() - start
            self.passes += 1
            if seconds is None:
                return perf_counter() - start

    def _fold(self, refs, times):
        self.ref_ms += refs
        for i, ms in enumerate(times):
            ref = statistics.median(refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 1])
            self.samples[i].append(ms * REF_NOMINAL_MS / ref)
            self.raw_samples[i].append(ms)

    def latencies(self, raw=False) -> list[float]:
        """Per item, the median of its times over the passes."""
        return [statistics.median(s) for s in (self.raw_samples if raw else self.samples)]

    def _record(self, item, out):
        ok, rejected = self._check(item, out)
        self.attempted += 1
        self.rejected += rejected
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{self._describe(item)} -> {out!r}"[:300])

    def summary(self, wall: float) -> dict:
        return {
            "wall_s": wall,
            "passes": self.passes,
            "items": len(self.items),
            "attempted": self.attempted,
            "failed": self.failed,
            "rejected": self.rejected,
            "errors": self.errors,
            "ref_ms_median": statistics.median(self.ref_ms),
            "sum_ms": sum(self.latencies()),
            "sum_raw_ms": sum(self.latencies(raw=True)),
        }


def _fingerprint(items) -> str:
    from workloads import describe

    text = "\n".join(describe(item) for item in items)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _scaling(items, latencies_ms) -> dict:
    """Median classify time per bit length on towers-bigk, and for the
    odd-k items of the Klein (+1,+1) cell (the non-split class, which
    takes the slow path); 0 where the workload has no such items."""
    from workloads import BIGK_BITS

    by_bits = {f"{p}b{b:02d}": [] for p in ("", "klein_pp.") for b in BIGK_BITS}
    for item, ms in zip(items, latencies_ms):
        if not item.bits:
            continue
        by_bits[f"b{item.bits:02d}"].append(ms)
        if item.pattern == ("K", (1, 1)) and item.k % 2:
            by_bits[f"klein_pp.b{item.bits:02d}"].append(ms)
    return {key: statistics.median(v) if v else 0.0 for key, v in by_bits.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("timed", "plain", "traced"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="duration of a timed run")
    parser.add_argument("--spans", help="file for the traced spans")
    args = parser.parse_args(argv)
    if args.mode == "timed" and args.seconds is None:
        parser.error("timed needs --seconds")

    sys.path.insert(0, str(SRC))
    from workloads import make_pass

    items = make_pass(args.workload, args.seed)
    # finish the lazy set-up (measured by setup_s) before any timing
    from nilbott.geometry import catalogue_representation

    catalogue_representation("B1")
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer().install()
    loop = Loop(items, tracer)
    wall = loop.run(args.seconds if args.mode == "timed" else None)
    result = loop.summary(wall)
    if args.mode == "timed":
        result["latencies_ms"] = loop.latencies()
        result["raw_latencies_ms"] = loop.latencies(raw=True)
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    elif args.mode == "plain":
        result["fingerprint"] = _fingerprint(items)
        result["scaling_ms"] = _scaling(items, loop.latencies())
    else:
        result["fingerprint"] = _fingerprint(items)
        result["calls"] = tracer.calls()
        result["self_s"] = tracer.self_times()
        result["counts"] = dict(tracer.counts)
        result["missing"] = tracer.missing
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
