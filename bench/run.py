"""Benchmark for trap4phish: one workload per run, end-to-end figures or,
with --trace 1, per-layer figures.

    python3 bench/run.py --workload corpus-scan --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all

Run from the repository root; the package is imported from ./src. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. The full result (metadata, every figure, output digests,
the hostile worst-case table) goes to .bench_out/, and traced runs also write
their spans there. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
DEFAULT_SEED = 1
WORKLOAD_NAMES = ("corpus-scan", "hostile-scan", "model-fit", "qr-roundtrip")
# set-up runs at least this many times, and until SETUP_MIN_S seconds have
# gone by, so a set-up of a few milliseconds still gives a steady median
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input sizes; tiny is for the benchmark's own tests")
    p.add_argument("--write-golden", action="store_true",
                   help="store this run's output digests as the golden ones (default seed only)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "trap4phish" / "__init__.py").is_file():
        print(f"error: trap4phish sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.write_golden and args.seed != DEFAULT_SEED:
        print(f"error: golden digests are kept for seed {DEFAULT_SEED} only", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(BENCH)]
    return run_workload(args)


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        if args.write_golden:
            cmd.append("--write-golden")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        totals["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(totals))
    return 0


def run_workload(args) -> int:
    import numpy as np

    import tracing
    import workloads
    from clock import PROBE_REF_S, Clock

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, work)
    tally = workloads.Tally()
    try:
        # --- set-up, repeated; the last one's inputs are used ---
        setup_clock = Clock()
        setup_times = []  # reference seconds
        setup_walls = []
        setup_tracer = tracing.Tracer()
        synth_times = []
        setup_start = time.perf_counter()
        while len(setup_times) < SETUP_REPEATS or time.perf_counter() - setup_start < SETUP_MIN_S:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            setup_tally = workloads.Tally()
            if args.trace:
                setup_tracer.install()
            n_spans = len(setup_tracer.spans)
            try:
                _, wall, ref = setup_clock.time(workload.setup, setup_tally)
            finally:
                setup_tracer.uninstall()
            setup_times.append(ref)
            setup_walls.append(wall)
            synth_times.append(sum((s.end - s.start for s in setup_tracer.spans[n_spans:]
                                    if s.name == "synth.synthesize"), 0.0))
        tally.add(setup_tally.attempted, setup_tally.failed, "; ".join(setup_tally.problems))
        workload.oracle(tally)

        # --- timed phase: an untimed warm-up pass, then untraced passes,
        # alternating with traced ones under --trace 1 ---
        expected = golden_digests(args, workload)
        passes = {"warmup": [], "untraced": [], "traced": []}  # (reference s, wall s) per pass
        tracer = tracing.Tracer()
        digests_seen = None
        deadline = time.perf_counter() + args.seconds
        while True:
            if not passes["warmup"]:
                kind = "warmup"
            elif args.trace and len(passes["untraced"]) > len(passes["traced"]):
                kind = "traced"
            else:
                kind = "untraced"
            workload.tracer = tracer if kind == "traced" else None
            if workload.tracer:
                tracer.install()
            try:
                digests, ref, wall = workload.run(tally, kind)
            finally:
                tracer.uninstall()
                workload.tracer = None
            passes[kind].append((ref, wall))
            reference = expected if expected is not None else digests_seen or digests
            for name, digest in sorted(digests.items()):
                tally.check(reference.get(name) == digest, f"digest mismatch: {name}")
            digests_seen = digests_seen or digests
            if (time.perf_counter() >= deadline and passes["untraced"]
                    and (not args.trace or passes["traced"])):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wall_s = statistics.median(ref for ref, _wall in passes["untraced"])
    figures = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall_s, "s"),
        "raw_wall_s": (statistics.median(wall for _ref, wall in passes["untraced"]), "s"),
        "items_per_s": (workload.items / wall_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "error_ratio": (tally.failed / tally.attempted if tally.attempted else 1.0, "ratio"),
        **workload.report(wall_s),
    }
    layers = {}
    if args.trace:
        layers = tracing.layer_metrics(tracer.spans, len(passes["traced"]), workload.hostile)
        layers["synth.corpus_s"] = (statistics.median(synth_times), "s")
        layers["trace.overhead_ratio"] = (statistics.median(ref for ref, _wall in passes["traced"]) / wall_s,
                                          "ratio")
        tracer.write(out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl")

    meta = metadata(args, workload, np.__version__)
    record = {
        "meta": meta, "passes": passes, "setup_s": setup_times, "setup_wall_s": setup_walls,
        "probe_s": {"reference": PROBE_REF_S, "setup": setup_clock.probes, "passes": workload.clock.probes},
        "end_to_end": figures, "per_layer": layers,
        "digests": digests_seen, "golden_checked": expected is not None,
        "attempted": tally.attempted, "failed": tally.failed, "problems": tally.problems,
    }
    if args.workload == "hostile-scan":
        record["worst_case"] = workload.worst_case_table()
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2), encoding="utf-8")
    if args.write_golden:
        store_golden(args, digests_seen)

    print(f"# {args.workload} seed={args.seed} size={args.size} "
          f"passes=1 warm-up+{len(passes['untraced'])}+{len(passes['traced'])} traced")
    print("# meta " + json.dumps(meta, sort_keys=True))
    if expected is None:
        print("# digests " + json.dumps(digests_seen, sort_keys=True))
    for problem in tally.problems:
        print(f"# failed: {problem}")
    everything = {**figures, **layers}
    for name, (value, unit) in everything.items():
        print(f"{args.workload:<14} {name:<40} {value:>14.6g} {unit}")
    metrics = {name: {"value": everything[name][0], "unit": everything[name][1]}
               for name in (sorted(layers) if args.trace else END_TO_END)}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def golden_digests(args, workload) -> dict | None:
    """Stored digests for the default seed; None for any other seed."""
    if args.seed != DEFAULT_SEED or args.write_golden:
        return None
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {}
    return golden.get(args.size, {}).get(workload.name, {})


def store_golden(args, digests: dict) -> None:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {}
    golden.setdefault(args.size, {})[args.workload] = digests
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def metadata(args, workload, numpy_version: str) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "sizes": workload.sizes_used(),
        "calibration_ms": calibration_ms(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, read directly; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def calibration_ms() -> float:
    """Best of five runs of a fixed pure-Python loop, to compare machines or
    drift between sets of runs; metadata only, never a metric."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best * 1e3


if __name__ == "__main__":
    sys.exit(main())
