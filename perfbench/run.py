"""The superdenom benchmark: timed `superdenom verify` workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every `superdenom.cli.main` call runs in a
fresh child process (perfbench/child.py), one child at a time, so that the
package's module-level caches are paid on every call, as they are by a user
of the CLI.  The seed only shuffles the order of a workload's calls: the
verifier is deterministic and has no random inputs.

One iteration runs every call of the workload once.  Its wall time is the
sum of the calls' `cli.main` times, measured inside the children, and its
peak RSS the largest peak RSS of its children, each taken from that child's
own rusage.  Every report is compared byte for byte, `wall_ms` removed, with
its golden copy in perfbench/golden.json; a call that exits nonzero, differs
from its golden copy or checks nothing counts as failed.

--trace 0 first times SETUP_CHILDREN set-up children, then runs untraced
iterations for --seconds and reports the end-to-end metrics as medians over
iterations.  --trace 1 alternates untraced and traced iterations for
--seconds, reports the per-layer metrics as medians over traced iterations,
and writes every span to perfbench/out/.  The last line of standard output
is one JSON object; metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden.json"
OUT = BENCH / "out"

# The calls of each workload and the twist orders its set-up builds.  Sizes
# keep one iteration within a few seconds on a 2-core machine, except on
# `twisted`, which needs height 18 for the accumulator to carry the most time.
WORKLOADS = {
    # Order 1: the rank-10 cone over E8, the only lattice with D = 1, where
    # membership and cone and isotropic enumeration carry the time.  Order 3:
    # the split-form factor list on N.L*, membership with D = 9.
    "denominator": {"orders": (1, 3), "calls": (
        "verify denominator --order 1 --height 2 --format json",
        "verify denominator --order 3 --height 5 --jobs 2 --format json",
    )},
    # the height-bucketed accumulator (mul_factor over ~10^4 factors) and the
    # chunk merge (mul_series) take more time than the factor list here
    "twisted": {"orders": (7,), "calls": (
        "verify denominator --order 7 --height 18 --jobs 2 --format json",
    )},
    # QSeries mul and inverse under cycle_product; no lattice code runs
    "susy": {"orders": (3, 7), "calls": (
        "verify susy --order 3 --prec 100 --format json",
        "verify susy --order 7 --prec 100 --format json",
    )},
    # the read side: Moebius convolution over the TwistClass caches, and
    # Fincke-Pohst coset thetas against the closed eta multisections
    "cosets": {"orders": (3, 7), "calls": (
        "verify mult --order 3 --height 4 --format json",
        "verify theta --order 7 --prec 10 --format json",
    )},
}

SETUP_CHILDREN = 5
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 120

_WALL_MS = re.compile(r'(.*),"wall_ms":\d+\}(\n?)', re.DOTALL)
_EMPTY_RANGE = re.compile(r"\b0 (points|factors)\b")


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run: no result may be printed."""


def run_child(args: list[str]) -> tuple[dict | None, float]:
    """Run child.py with args; return (its JSON result or None, peak RSS MB).

    The child is reaped with os.wait4, so the RSS is that child's own peak,
    not the running maximum over all children.
    """
    proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), *args],
                            cwd=ROOT, stdout=subprocess.PIPE)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        killer.cancel()
    rss_mb = usage.ru_maxrss / 1024
    if proc.returncode != 0:
        return None, rss_mb
    lines = out.decode().splitlines()
    return (json.loads(lines[-1]) if lines else None), rss_mb


def strip_wall_ms(report: str) -> str | None:
    m = _WALL_MS.fullmatch(report)
    return m.group(1) + "}" + m.group(2) if m else None


def call_failure(result: dict | None, golden: str) -> str | None:
    """Why a call failed, or None when its report is good."""
    if result is None:
        return "child process died"
    if result["rc"] != 0:
        return f"exit status {result['rc']}"
    report = strip_wall_ms(result["report"])
    if report != golden:
        return "report differs from its golden copy"
    checks = json.loads(report)["checks"]
    if not checks:
        return "vacuous report: no checks"
    if any(_EMPTY_RANGE.search(c["range"] or "") for c in checks):
        return "vacuous report: a check ranges over nothing"
    return None


def load_golden() -> dict[str, str]:
    if not GOLDEN.is_file():
        raise BenchmarkError(f"missing golden reports {GOLDEN}")
    return json.loads(GOLDEN.read_text())


def run_iteration(calls, golden, traced: bool, run_id: str) -> dict:
    """Run each call once, each in a fresh child."""
    it = {"wall_s": 0.0, "rss_mb": 0.0, "attempted": 0, "failed": 0,
          "reports": {}, "traces": []}
    for i, argv in enumerate(calls):
        if argv not in golden:
            raise BenchmarkError(f"no golden report for {argv!r}")
        result, rss_mb = run_child(["call", "1" if traced else "0",
                                    f"{run_id}.{i}", "--", *argv.split()])
        it["attempted"] += 1
        it["rss_mb"] = max(it["rss_mb"], rss_mb)
        failure = call_failure(result, golden[argv])
        if failure is not None:
            it["failed"] += 1
            print(f"FAILED {argv}: {failure}", file=sys.stderr)
        if result is not None:
            it["wall_s"] += result["wall_s"]
            it["reports"][argv] = strip_wall_ms(result["report"])
            if traced:
                it["traces"].append(result["trace"])
    return it


def measure_setup(orders) -> list[float]:
    times = []
    for _ in range(SETUP_CHILDREN):
        result, _ = run_child(["setup", *map(str, orders)])
        if result is None:
            raise BenchmarkError("set-up child failed: cannot import "
                                 "superdenom from src/ or build a TwistClass")
        times.append(result["setup_s"])
    return times


def layer_metrics(it: dict, names) -> dict[str, float]:
    """Per-layer metric values of one traced iteration."""
    calls, self_s, counts = {}, {}, {}
    for tr in it["traces"]:
        for src, dst in ((tr["calls"], calls), (tr["self_s"], self_s),
                         (tr["counts"], counts)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
    values = {}
    for name in names:
        stem, _, suffix = name.rpartition(".")
        if name == "cli.report_bytes":
            values[name] = sum(len(r or "") for r in it["reports"].values())
        elif suffix == "s":
            values[name] = self_s.get(stem, 0.0)
        elif suffix in ("calls", "count"):
            values[name] = calls.get(stem, 0)
        else:
            values[name] = counts.get(name, 0)
    return values


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "superdenom" / "cli.py").is_file():
        raise BenchmarkError("no superdenom source under src/")
    golden = load_golden()
    rng = random.Random(seed)
    calls = list(WORKLOADS[workload]["calls"])
    setup = [] if traced else measure_setup(WORKLOADS[workload]["orders"])

    plain, tracedits = [], []
    deadline = time.monotonic() + seconds
    n = 0
    while (time.monotonic() < deadline or len(plain) < MIN_ITERATIONS
           or (traced and len(tracedits) < MIN_ITERATIONS)):
        rng.shuffle(calls)
        with_trace = traced and n % 2 == 1
        it = run_iteration(calls, golden, with_trace, f"{seed}.{n}")
        (tracedits if with_trace else plain).append(it)
        n += 1

    its = plain + tracedits
    attempted = sum(it["attempted"] for it in its)
    failed = sum(it["failed"] for it in its)
    wall = statistics.median(it["wall_s"] for it in plain)
    print(f"{workload}: seed {seed}, {len(plain)} untraced and "
          f"{len(tracedits)} traced iterations of {len(calls)} call(s); "
          f"failed_ratio {failed}/{attempted} = {failed / attempted:g}")

    if traced:
        names = [m["name"] for m in spec["per_layer"]
                 if m["name"] != "trace.overhead_ratio"]
        per_it = [layer_metrics(it, names) for it in tracedits]
        values = {k: statistics.median_low(v[k] for v in per_it)
                  for k in names}
        values["trace.overhead_ratio"] = statistics.median(
            it["wall_s"] for it in tracedits) / wall
        write_spans(workload, seed, tracedits)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(it["rss_mb"] for it in plain),
            "pass_ratio": 1 - failed / attempted,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, v in values.items():
        print(f"  {name} = {v:.6g} {units[name]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def write_spans(workload: str, seed: int, tracedits) -> None:
    OUT.mkdir(exist_ok=True)
    spans = [s for it in tracedits for tr in it["traces"] for s in tr["spans"]]
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "spans": spans}))
    print(f"  {len(spans)} spans written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
