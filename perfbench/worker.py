"""One workload process, started in a fresh interpreter by `run.py`.

Modes (all print one JSON object as the last line of stdout):

- `setup`: import kgring.cli from ./src, create the seeded stream, run one
  warm-up command; report the seconds that took.
- `loop`: the same set-up, then a closed loop with one client for
  `--seconds`: the next command starts only after the previous one returned
  and its output was checked. Only the `kgring.cli.main(argv)` call is timed.
- `fixed`: the same set-up, then exactly `--commands` commands, with or
  without tracing (`--trace`). Counters from a traced run depend only on the
  seed and the command count.

stdout and stderr of each command are captured in memory, as the program
writes them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ".perfbench_out"


def run_command(main, argv):
    """(exit code, stdout, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = main(argv)
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), elapsed


def set_up(workload: str, seed: int):
    """Import the program from ./src, make the inputs, run the warm-up command."""
    start = time.perf_counter()
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import kgring.cli

    imported = time.perf_counter()
    if not os.path.abspath(kgring.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"kgring was imported from {kgring.cli.__file__}, not from {src}")
    commands = workloads.stream(workload, seed)
    warm = workloads.warmup(workload, seed)
    rc, out, _ = run_command(kgring.cli.main, warm)
    setup_s = time.perf_counter() - start
    warm_check = reference.check(warm, rc, out, strict=False)
    return kgring.cli, commands, {
        "setup_s": setup_s,
        "import_s": imported - start,
        "warmup_failed": warm_check.failed,
        "reasons": [warm_check.reason] if warm_check.failed else [],
    }


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.item_counts: list[int] = []
        self.items = self.failed = self.certified = self.iterations_max = 0
        self.verify_rows = self.output_bytes = 0
        self.reasons: list[str] = []

    def add(self, argv, rc, out, elapsed) -> None:
        result = reference.check(argv, rc, out)
        self.latencies.append(elapsed)
        self.item_counts.append(result.items)
        self.items += result.items
        self.failed += result.failed
        self.certified += result.certified
        self.iterations_max = max(self.iterations_max, result.iterations_max)
        self.output_bytes += len(out.encode())
        if argv[0] == "verify":
            self.verify_rows += result.items
        if result.failed and len(self.reasons) < 5:
            self.reasons.append(f"{' '.join(argv)}: {result.reason}")

    def report(self) -> dict:
        return {
            "latencies": self.latencies, "item_counts": self.item_counts, "items": self.items, "failed": self.failed,
            "certified": self.certified, "iterations_max": self.iterations_max,
            "output_bytes": self.output_bytes, "busy_s": sum(self.latencies),
        }


def _environment() -> dict:
    import numpy
    import kgring

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "backend": kgring.BACKEND}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("mode", choices=("setup", "loop", "fixed"))
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--commands", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    cli, commands, result = set_up(args.workload, args.seed)
    result["env"] = _environment()
    tally = Tally()
    if args.mode == "loop":
        # stop before a command that would likely end past --seconds
        deadline = time.perf_counter() + args.seconds
        last = 0.0
        while not tally.latencies or time.perf_counter() + last < deadline:
            cmd = next(commands)
            tally.add(cmd, *run_command(cli.main, cmd))
            last = tally.latencies[-1]
    elif args.mode == "fixed":
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        for k in range(1, args.commands + 1):
            cmd = next(commands)
            if tracer is not None:
                tracer.command = k
            tally.add(cmd, *run_command(cli.main, cmd))
        if tracer is not None:
            from tracing import summarize

            with open("BENCHMARK.json") as fh:
                expected = [m["name"] for m in json.load(fh)["per_layer"]]
            result["metrics"], result["notes"] = summarize(tracer, expected, tally.verify_rows)
            os.makedirs(OUT_DIR, exist_ok=True)
            path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.csv.gz")
            tracer.write_spans(path)
            result["spans"] = {"file": path, "count": len(tracer.spans)}
    result.update(tally.report())
    result["reasons"] += tally.reasons
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
