#!/usr/bin/env python3
"""kgring's benchmark: one seeded workload, end to end or traced.

    python3 perfbench/run.py --workload ring_spectrum --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from ./src as it
stands (whatever kernel backend the package selects; nothing is built).

--trace 0: one fresh workload process runs a closed loop with one client for
--seconds, then SETUP_PROBES fresh processes each time set-up alone. Prints
every end-to-end metric of BENCHMARK.json.

--trace 1: the first K commands of the same stream run twice, each in a fresh
process: untraced, then traced. K depends only on the workload and --seconds,
so the counters repeat exactly for a seed. Prints every per-layer metric of
BENCHMARK.json and the tracing overhead; the spans go to .perfbench_out/.

The last line of stdout is the result object; the exit code is 0 only when
every output passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import PERIOD, WORKLOADS  # noqa: E402

SETUP_PROBES = 9
# commands per block of latency_tail_ms (whole periods of the stream). On
# ring_spectrum a run holds 6-8 blocks, and their median is steadier than a
# tail over the run. exact_oneshot's tail is its costliest wavefunction
# commands, which a tail over the whole run finds more steadily than blocks;
# oracle_verify never has eleven commands.
TAIL_BLOCK = {"ring_spectrum": 100}
# traced commands per second of --seconds. ring_spectrum records about 11,000
# spans per command, which bounds its K; oracle_verify's two passes together
# take about --seconds at this revision's speed
TRACE_RATE = {"ring_spectrum": 1.0, "oracle_verify": 1.0 / 15.0, "exact_oneshot": 10.0}
# every worker must finish by then, so that a run ends inside three minutes
RUN_BUDGET_S = 170


class WorkerFailed(Exception):
    pass


def _worker(mode: str, args, *extra: str, env: dict) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(1.0, args.deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker ran past the {RUN_BUDGET_S} s budget of a run") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def tail(latencies, block: int):
    """(value, percentile, blocks) of the tail latency.

    The run is cut into whole blocks of `block` consecutive commands (the
    last, shorter one is dropped); in each block the tail is the latency at
    the highest percentile with ten samples beyond it, and the median over
    the blocks is reported. A host hiccup of a few seconds then moves one
    block, not the run's figure. A run shorter than one block is one block.

    With ten samples or fewer no percentile qualifies; the upper quartile of
    the commands is reported instead, which one slow command cannot set.
    """
    n = len(latencies)
    if n <= 10:
        if n == 1:
            return latencies[0], 100.0, 1
        return statistics.quantiles(latencies, n=4, method="inclusive")[2], 75.0, 1
    size = min(block, n)
    values = [sorted(latencies[i:i + size])[size - 11] for i in range(0, n - size + 1, size)]
    return statistics.median(values), 100.0 * (size - 10) / size, len(values)


def block_rates(latencies, item_counts, size: int) -> list[float]:
    """Items per second of each whole block of `size` consecutive commands.

    Every block holds one period of the stream, so all blocks carry the same
    mix; their median discounts bursts in which the host runs slow.
    """
    return [sum(item_counts[i:i + size]) / sum(latencies[i:i + size])
            for i in range(0, len(latencies) - size + 1, size)]


def end_to_end(args, env) -> tuple[dict, dict, list]:
    loop = _worker("loop", args, "--seconds", str(args.seconds), env=env)
    setups = [_worker("setup", args, env=env)["setup_s"] for _ in range(SETUP_PROBES)]
    lat = loop["latencies"]
    tail_s, tail_pct, tail_blocks = tail(lat, TAIL_BLOCK.get(args.workload, len(lat)))
    rates = block_rates(lat, loop["item_counts"], PERIOD[args.workload]) or [loop["items"] / loop["busy_s"]]
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": statistics.median(rates),
        "latency_p50_ms": 1000.0 * statistics.median(lat),
        "latency_tail_ms": 1000.0 * tail_s,
        "certified_frac": loop["certified"] / loop["items"],
        "peak_rss_mb": loop["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes: "
                   + ", ".join(f"{s:.4f}" for s in setups),
        "items_per_s": f"median of {len(rates)} blocks of {PERIOD[args.workload]} commands; "
                       f"{loop['items']} items in {len(lat)} commands, {loop['busy_s']:.3f} s busy",
        "latency_p50_ms": f"n = {len(lat)}",
        "latency_tail_ms": f"p{tail_pct:.4g}, median of {tail_blocks} blocks, n = {len(lat)}",
        "certified_frac": f"{loop['certified']} of {loop['items']}",
        "failed_frac": f"{loop['failed'] / loop['items']:.6g} ({loop['failed']} of {loop['items']})",
    }
    extra = {"loop": loop, "notes": notes, "attempted": loop["items"],
             "failed": loop["failed"] + loop["warmup_failed"]}
    return values, extra, loop["reasons"]


def traced(args, env) -> tuple[dict, dict, list]:
    k = max(1, round(args.seconds * TRACE_RATE[args.workload]))
    plain = _worker("fixed", args, "--commands", str(k), "--trace", "0", env=env)
    run = _worker("fixed", args, "--commands", str(k), "--trace", "1", env=env)
    values = dict(run["metrics"])
    values.update({
        "trace.overhead_pct": 100.0 * (run["busy_s"] - plain["busy_s"]) / plain["busy_s"],
        "cli.output_bytes": run["output_bytes"],
        "bound_states.iterations_max": run["iterations_max"],
        "kgring.import_s": run["import_s"],
    })
    notes = dict(run["notes"]["bases"])
    notes["trace.overhead_pct"] = (f"{k} commands: {run['busy_s']:.4f} s traced, "
                                   f"{plain['busy_s']:.4f} s untraced")
    extra = {"loop": run, "notes": notes, "absent": run["notes"]["absent"],
             "top_self_s": run["notes"]["top_self_s"], "spans": run["spans"],
             "attempted": plain["items"] + run["items"],
             "failed": sum(r["failed"] + r["warmup_failed"] for r in (plain, run))}
    return values, extra, plain["reasons"] + run["reasons"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    args.deadline = time.monotonic() + RUN_BUDGET_S
    if not os.path.isfile(os.path.join("src", "kgring", "cli.py")) or not os.path.isfile("BENCHMARK.json"):
        print("perfbench: run from the root of a kgring checkout (src/kgring and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ)
    # the program's default thread pool (os.cpu_count() workers) runs, as for users
    kg_threads = env.pop("KG_THREADS", None)
    started = time.perf_counter()
    try:
        values, extra, reasons = (traced if args.trace else end_to_end)(args, env)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    loop = extra["loop"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "cpu_count": os.cpu_count(), "nproc": len(os.sched_getaffinity(0)),
        **loop["env"], "KG_THREADS": kg_threads,
        "KGRING_PURE_PYTHON": os.environ.get("KGRING_PURE_PYTHON"), "commit": _commit(),
        "wall_s": round(time.perf_counter() - started, 3),
    }
    print("env " + json.dumps(record))
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        note = extra["notes"].get(m["name"], "")
        print(f"{m['name']:<40} {values[m['name']]:>16.6g} {m['unit']:<6} {note}")
    if "failed_frac" in extra["notes"]:
        print(f"{'failed_frac':<40} {extra['notes']['failed_frac']}")
    if args.trace:
        print("absent: " + (", ".join(extra["absent"]) or "none"))
        print("largest self times: " + json.dumps(extra["top_self_s"]))
        print(f"spans: {extra['spans']['count']} written to {extra['spans']['file']}")
    failed = extra["failed"]
    for reason in reasons:
        print(f"check failed: {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": extra["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
