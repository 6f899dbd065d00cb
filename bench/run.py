#!/usr/bin/env python3
"""Benchmark for hx, run from the root of a source checkout (no install needed).

    python3 bench/run.py --workload cli-enum --seed 1 --seconds 40 --trace 0

Workloads: cli-enum and cli-poly start one fresh ``hx`` process per call
on seeded documents; family-sweep starts one fresh process per pass
(``family.py``), which runs a fixed slice of the acceptance family through
the library. A run repeats whole passes over the workload's fixed operation
list for about ``--seconds`` seconds, one operation at a time (closed
loop, one client), and checks every output. The last line of stdout is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``. The line before it holds
diagnostics about the host (hypervisor steal, load average), which are
not metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("cli-enum", "cli-poly", "family-sweep")
CLI_SETUP_EVERY = 6  # a fresh `hx --help` process after every 6th operation; setup_s is their median
STARTUP_PROBES = 5  # `hx --help` processes behind cli.startup_ms
MAX_ERRORS_SHOWN = 10


@dataclass
class Tally:
    """What one run measured; latencies are kept per operation slot."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # operations that did not complete
    errors: list = field(default_factory=list)  # completed operations with a wrong output
    latencies: dict = field(default_factory=lambda: defaultdict(list))  # untraced, per slot
    pass_times: list = field(default_factory=list)  # untraced passes
    traced_pass_times: list = field(default_factory=list)
    peak_rss_kb: int = 0
    summaries: list = field(default_factory=list)  # span summaries of traced work
    setup_s: list = field(default_factory=list)
    startup_ms: list = field(default_factory=list)


def host_state() -> dict:
    """Hypervisor steal ticks and load averages, read-only from /proc (None where absent)."""
    state = {"steal_ticks": None, "loadavg": None}
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            state["steal_ticks"] = int(handle.readline().split()[8])
    except (OSError, IndexError, ValueError):
        pass
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            state["loadavg"] = [float(x) for x in handle.read().split()[:3]]
    except (OSError, ValueError):
        pass
    return state


@dataclass
class Child:
    code: int
    latency_s: float
    stdout: str
    spawn_mono: float


def spawn(args, stats_path: Path, traced: bool = False, script: str = "launch.py") -> Child:
    """One fresh program process (the CLI launcher, or a family pass), waited for.

    The process writes what it measured of itself to ``stats_path``.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), HXB_STATS=str(stats_path))
    env.pop("HXB_TRACE", None)
    if traced:
        env["HXB_TRACE"] = "1"
    work = stats_path.parent
    stats_path.unlink(missing_ok=True)
    with open(work / "stdout", "w+b") as out, open(work / "stderr", "w+b") as err:
        spawn_mono = time.monotonic()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH / script), *args], stdout=out, stderr=err, env=env, cwd=ROOT)
        latency = time.perf_counter() - start
        out.seek(0)
        text = out.read().decode("utf-8", "replace")
        if proc.returncode != 0:
            err.seek(0)
            text += err.read().decode("utf-8", "replace")
    return Child(proc.returncode, latency, text, spawn_mono)


def keep_going(started: float, seconds: float, last_pass: float, passes: int, min_passes: int) -> bool:
    """Start another pass if it would end closer to the run length than stopping now does."""
    return passes < min_passes or time.perf_counter() - started + last_pass / 2 <= seconds


def probe_startup(tally: Tally, work: Path) -> None:
    """`hx --help` processes: time from spawn until hx.cli is imported."""
    stats_path = work / "stats.json"
    for _ in range(STARTUP_PROBES):
        child = spawn(("--help",), stats_path)
        stats = json.loads(stats_path.read_text(encoding="utf-8"))
        tally.startup_ms.append((stats["startup_mono"] - child.spawn_mono) * 1000)


def run_cli(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> Tally:
    import workloads

    build = workloads.cli_enum_ops if workload == "cli-enum" else workloads.cli_poly_ops
    ops = build(seed, work / "inputs")
    tally = Tally()
    if trace:
        probe_startup(tally, work)
    first_output: dict[str, str] = {}
    stats_path = work / "stats.json"
    started, last_pass, passes = time.perf_counter(), 0.0, 0
    while keep_going(started, seconds, last_pass, passes, 2 if trace else 1):
        traced = trace and passes % 2 == 1
        pass_start, pass_time = time.perf_counter(), 0.0
        for op in ops:
            child = spawn(op.args, stats_path, traced)
            tally.attempted += 1
            if not trace and tally.attempted % CLI_SETUP_EVERY == 0:
                # Start-up probes are spread over the run so that they see its slow and fast phases.
                tally.setup_s.append(spawn(("--help",), work / "help-stats.json").latency_s)
            if child.code != 0:
                tally.failed += 1
                tally.failures.append(f"{op.name}: exit {child.code}: {child.stdout.strip()[-300:]}")
                continue
            pass_time += child.latency_s
            stats = json.loads(stats_path.read_text(encoding="utf-8"))
            tally.peak_rss_kb = max(tally.peak_rss_kb, stats["peak_rss_kb"])
            if traced:
                tally.summaries.append(stats["trace"])
            else:
                tally.latencies[op.name].append(child.latency_s)
            if op.name not in first_output:
                first_output[op.name] = child.stdout
                try:
                    problems = op.check(json.loads(child.stdout))
                except (ValueError, KeyError, TypeError) as exc:
                    problems = [f"unreadable output ({exc!r})"]
                tally.errors += [f"{op.name}: {problem}" for problem in problems]
            elif child.stdout != first_output[op.name]:
                tally.errors.append(f"{op.name}: output differs between passes")
        (tally.traced_pass_times if traced else tally.pass_times).append(pass_time)
        last_pass = time.perf_counter() - pass_start
        passes += 1
    return tally


def run_family(seed: int, seconds: float, trace: bool, work: Path) -> Tally:
    import checks

    tally = Tally()
    if trace:
        probe_startup(tally, work)
    stats_path = work / "family-pass.pickle"
    first = None  # the first pass's slots; they are checked, later passes must equal them
    started, last_pass, passes = time.perf_counter(), 0.0, 0
    while keep_going(started, seconds, last_pass, passes, 2 if trace else 1):
        traced = trace and passes % 2 == 1
        pass_start, pass_time = time.perf_counter(), 0.0
        child = spawn((str(seed),), stats_path, traced, script="family.py")
        if child.code != 0:
            tally.attempted += 1
            tally.failed += 1
            tally.failures.append(f"family pass: exit {child.code}: {child.stdout.strip()[-300:]}")
        else:
            with open(stats_path, "rb") as handle:
                result = pickle.load(handle)
            tally.peak_rss_kb = max(tally.peak_rss_kb, result["peak_rss_kb"])
            for slot, item in enumerate(result["slots"]):
                tally.attempted += 1
                if item["failure"] is not None:
                    tally.failed += 1
                    tally.failures.append(f"graph {slot} {item['edges']}: {item['failure']}")
                    continue
                pass_time += item["latency_s"]
                if not traced:
                    tally.latencies[slot].append(item["latency_s"])
            if first is None:
                first = result["slots"]
                for slot, item in enumerate(first):
                    if item["rec"] is not None:
                        problems = checks.check_family(item["vertices"], item["edges"], item["columns"], item["rec"])
                        tally.errors += [f"graph {slot} {item['edges']} {item['columns']}: {problem}" for problem in problems]
            elif [item["rec"] for item in result["slots"]] != [item["rec"] for item in first]:
                tally.errors.append("family records differ between passes")
            if traced:
                tally.summaries.append(result["trace"])
            else:
                tally.setup_s.append(result["setup_s"])
        (tally.traced_pass_times if traced else tally.pass_times).append(pass_time)
        last_pass = time.perf_counter() - pass_start
        passes += 1
    return tally


def median(values) -> float:
    """The median, or 0 when every operation failed and nothing was timed."""
    return statistics.median(values) if values else 0.0


def end_to_end(tally: Tally, listed) -> dict:
    latencies = [x for slot in tally.latencies.values() for x in slot]
    values = {
        "setup_s": median(tally.setup_s),
        # One pass: each slot's median latency over the run's passes, summed.
        "wall_s": sum(median(slot) for slot in tally.latencies.values()),
        "op_p50_ms": median(latencies) * 1000,
        "peak_rss_mb": tally.peak_rss_kb / 1024,
    }
    return {m["name"]: (values[m["name"]], m["unit"]) for m in listed}


def per_layer(tally: Tally, listed) -> dict:
    """The listed per-layer metrics, per traced pass.

    ``<module>.self_s`` is a module's self time, ``<module>.<function>.s``
    a function's inclusive time and ``.calls`` its call count; the rest
    are named below.
    """
    total: dict = defaultdict(lambda: defaultdict(float))
    max_bits: dict = defaultdict(int)
    for summary in tally.summaries:
        for group in ("self_s", "inclusive_s", "calls"):
            for key, value in summary[group].items():
                total[group][key] += value
        for key, value in summary["max_bits"].items():
            max_bits[key] = max(max_bits[key], value)
        for key in ("cycletrees_found", "subsets_tested", "matrices"):
            total["counts"][key] += summary[key]
    passes = len(tally.traced_pass_times)
    per_pass = {group: {k: v / passes for k, v in values.items()} for group, values in total.items()}
    counts = total["counts"]
    parse_calls = total["calls"].get("documents.parse_document", 0)
    named = {
        "spanning.cycletrees.found": counts["cycletrees_found"] / passes,
        "spanning.cycletree_yield": counts["cycletrees_found"] / counts["subsets_tested"] if counts["subsets_tested"] else 0.0,
        "winding.lambda.max_bits": max_bits["winding.lambda"],
        "intlinalg.smith_normal_form.max_bits": max_bits["intlinalg.smith_normal_form"],
        "intlinalg.IntMatrix.count": counts["matrices"] / passes,
        "cli.startup_ms": median(tally.startup_ms),
        "documents.parse_document.ms": total["inclusive_s"].get("documents.parse_document", 0.0) / parse_calls * 1000 if parse_calls else 0.0,
        "trace.overhead_pct": (median(tally.traced_pass_times) / median(tally.pass_times) - 1) * 100 if tally.pass_times else 0.0,
    }
    groups = {"self_s": "self_s", "s": "inclusive_s", "calls": "calls"}

    def value(name: str) -> float:
        if name in named:
            return named[name]
        key, _, kind = name.rpartition(".")
        return per_pass.get(groups[kind], {}).get(key, 0.0)

    return {m["name"]: (value(m["name"]), m["unit"]) for m in listed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hx" / "cli.py").is_file():
        print(f"bench: {SRC / 'hx'} not found; run from the root of an hx source checkout", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = OUT / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    before, start = host_state(), time.perf_counter()
    if args.workload == "family-sweep":
        tally = run_family(args.seed, args.seconds, bool(args.trace), work)
    else:
        tally = run_cli(args.workload, args.seed, args.seconds, bool(args.trace), work)
    after = host_state()

    for message in (tally.failures + tally.errors)[:MAX_ERRORS_SHOWN]:
        print(f"bench: {message}", file=sys.stderr)
    metrics = per_layer(tally, spec["per_layer"]) if args.trace else end_to_end(tally, spec["end_to_end"])
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    steal = None
    if before["steal_ticks"] is not None and after["steal_ticks"] is not None:
        steal = after["steal_ticks"] - before["steal_ticks"]
    diagnostics = {
        "steal_ticks": steal,
        "loadavg_start": before["loadavg"],
        "loadavg_end": after["loadavg"],
        "passes": len(tally.pass_times) + len(tally.traced_pass_times),
        "untraced_pass_s": tally.pass_times,
        "run_s": time.perf_counter() - start,
    }
    latencies = {str(slot): xs for slot, xs in tally.latencies.items()}
    record = {"diagnostics": diagnostics, **result, "latencies_s": latencies, "failures": tally.failures, "errors": tally.errors}
    (work / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
