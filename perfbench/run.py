"""The repo benchmark's one command.

    python3 perfbench/run.py                      # all four workloads
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--workload`` it runs that workload and prints, as the last line
of stdout, one JSON object ``{correct, attempted, failed, metrics}``: the
six end-to-end metrics (``--trace 0``) or every per-layer metric
(``--trace 1``). The workload runs in a child interpreter of its own
(isolates ``ru_maxrss``, imports and worker pools) under a supervisor
that returns only once every process the run started has ended
(``perfbench/supervise.py``). Without ``--workload``, each workload is
run that way in turn. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
#: One BLAS thread everywhere: with the default of 2 on the 2-core box,
#: cpu time was 2x wall and the hetero p50 ranged 42-58 ms run to run;
#: pinned it is 40-42 ms. Children inherit the environment.
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Hard stop for one workload run, below the 180 s the driver allows.
CHILD_TIMEOUT_S = 170.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=0, help="seeds the inputs")
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="measured seconds per run (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        nargs="?",
        const=1,
        default=0,
        help="1: traced pass, per-layer metrics and span files in perfbench/out/",
    )
    parser.add_argument(
        "--check-repeat",
        type=int,
        nargs="?",
        const=3,
        default=0,
        metavar="K",
        help="run two interleaved sets of K runs and compare their medians",
    )
    parser.add_argument(
        "--quick", action="store_true", help="tiny shapes, a smoke test under 20 s"
    )
    # Set by the supervisor on the child that runs the workload in-process.
    parser.add_argument("--supervised", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fmt(value: float) -> str:
    return f"{value:.6g}"


def run_workload(args) -> int:
    """Run one workload in this process; print metrics, then the JSON line."""
    t0 = time.perf_counter()
    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    wl = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        from perfbench.layers import run_traced

        samples, values = run_traced(wl, args.seed, args.seconds, args.quick, OUT_DIR)
        declared = {name: unit for name, (unit, _) in PER_LAYER.items()}
        if set(values) != set(declared):
            print(f"printed/declared mismatch: {sorted(set(values) ^ set(declared))}")
            return 1
        metrics = {name: (values[name], declared[name], None) for name in declared}
    else:
        from perfbench.batch import run_batch
        from perfbench.serving import run_serve

        import_s = time.perf_counter() - t0
        if wl.kind == "batch":
            samples = run_batch(wl, args.seed, args.seconds, args.quick)
        else:
            samples = run_serve(wl, args.seed, args.seconds, args.quick, OUT_DIR)
        values = samples.end_to_end(import_s)
        metrics = {
            name: (values[name][0], unit, values[name][1])
            for name, (unit, _, _) in END_TO_END.items()
        }
    print(f"== {wl.name} seed={args.seed} trace={args.trace}")
    for name, (value, unit, n) in metrics.items():
        count = "" if n is None else f"  (n={n})"
        print(f"  {name:42s} {fmt(value):>12s} {unit}{count}")
    print(f"  operations attempted={samples.attempted} failed={samples.failed}")
    for reason in samples.reasons:
        print(f"  FAILED: {reason}")
    bad = [name for name, (value, _, _) in metrics.items() if math.isnan(value)]
    if bad:
        print(f"no value measured for {bad}", file=sys.stderr)
        return 1
    result = {
        "correct": samples.failed == 0,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def run_child(name: str, args, trace: int) -> dict | None:
    """One supervised workload run; its parsed JSON line or None."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
    command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    command += ["--trace", str(trace)] + (["--quick"] if args.quick else [])
    # No timeout here: the supervisor this starts enforces CHILD_TIMEOUT_S
    # and is the one that can stop what the workload started.
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if done.returncode != 0:
        print(f"== {name}: exit code {done.returncode}\n{done.stderr[-2000:]}")
        return None
    return json.loads(lines[-1])


def run_all(args, manifest: dict) -> int:
    """Every workload untraced, then (``--trace 1``) traced; 0 iff all correct."""
    ok = True
    for row in manifest["workloads"]:
        for trace in range(args.trace + 1):
            result = run_child(row["name"], args, trace)
            ok = ok and result is not None and result["correct"]
    if args.trace:
        print(
            "Amdahl note: with nothing else contending, a faster layer saves at "
            "most its self-time share (perfbench/out/trace-*.json) - speeding "
            "pipeline.fit_execute_s alone moves fit_s@hetero_highdim_fit by <10% "
            "while supervised.fit_approximate_s is ~90% of it."
        )
    print("all workloads correct" if ok else "FAILED: see above")
    return 0 if ok else 1


def check_repeat(args, manifest: dict) -> int:
    """Sets A and B of K runs each, interleaved; 0 iff every end-to-end
    median pair agrees within the metric's own bound."""
    names = [row["name"] for row in manifest["workloads"]]
    sets = {"A": {}, "B": {}}
    ok = True
    for _ in range(args.check_repeat):
        for label in ("A", "B"):
            for name in names:
                result = run_child(name, args, 0)
                if result is None or not result["correct"]:
                    ok = False
                    continue
                for metric, entry in result["metrics"].items():
                    sets[label].setdefault((name, metric), []).append(entry["value"])
    print(f"{'workload':24s} {'metric':18s} {'A':>11s} {'B':>11s} {'diff':>7s} bound")
    for row in manifest["end_to_end"]:
        for name in names:
            a = sets["A"].get((name, row["name"]))
            b = sets["B"].get((name, row["name"]))
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            diff = abs(med_b - med_a) / med_a
            verdict = "" if diff <= row["bound"] else "  OUTSIDE"
            ok = ok and not verdict
            print(
                f"{name:24s} {row['name']:18s} {fmt(med_a):>11s} {fmt(med_b):>11s} "
                f"{diff:7.2%} {row['bound']:.2f}{verdict}"
            )
    print("sets agree" if ok else "FAILED: sets disagree or a run failed")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'} is missing: nothing to build", file=sys.stderr)
        return 2
    for var in BLAS_PINS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.validate import load_manifest

    manifest = load_manifest()
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(manifest["run_seconds"])
    if args.workload and args.supervised:
        return run_workload(args)
    if args.workload:
        from perfbench.supervise import supervise

        command = [sys.executable, str(Path(__file__).resolve()), "--supervised"]
        command += sys.argv[1:] if argv is None else argv
        return supervise(command, CHILD_TIMEOUT_S)
    if args.check_repeat:
        return check_repeat(args, manifest)
    return run_all(args, manifest)


if __name__ == "__main__":
    sys.exit(main())
