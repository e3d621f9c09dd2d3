#!/usr/bin/env python3
"""Repository benchmark: build skybench from source, run one workload, print metrics.

    python3 skybench/run.py --workload batch-csv --seed 1 --seconds 10 --trace 0
    python3 skybench/run.py --workload serve-mixed --seed 1 --seconds 10 --repeat 5

Run from the repository root. The first call configures and builds the mrsky
libraries plus the skybench program into .bench_build/skybench (Release);
later calls rebuild incrementally. Each run generates its inputs from --seed
into a private directory under .bench_work/, measures for --seconds, checks
every output, writes a result file under .bench_results/ and prints, as its
last line, {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones (and writes a
Chrome-trace JSON next to the result file).

--repeat K is the steadiness mode: it runs the workload K times on seeds
seed..seed+K-1 and prints each metric's median, quartiles and spread
((q3 - q1) / median) instead of a single result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("batch-csv", "batch-mrb", "serve-read", "serve-mixed")
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170  # prepare + run must end within the 180 s a run may take


def log(msg):
    print(f"skybench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "skybench"


def build():
    """Configures (once) and builds the skybench program; returns its path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)  # leave no half-configured tree behind
            raise RuntimeError("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise RuntimeError("build failed")
    return out / "skybench"


def host_facts():
    facts = {"nproc": len(os.sched_getaffinity(0)), "git_commit": "unknown"}
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10)
            if commit.returncode == 0:
                facts["git_commit"] = commit.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    lines = 0
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".cpp", ".hpp"):
            with open(path, "rb") as f:
                lines += sum(1 for _ in f)
    facts["src_lines"] = lines
    return facts


def metric_units(trace):
    """The metrics a run reports, by name, with their units: BENCHMARK.json's
    end-to-end list untraced, its per-layer list traced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def with_units(values, trace):
    """Attaches units to the program's metric values. A per-layer metric the
    workload does not exercise reads 0; an end-to-end metric must be there."""
    units = metric_units(trace)
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise ValueError(f"metrics missing from BENCHMARK.json: {unknown}")
    missing = sorted(set(units) - set(values))
    if missing and not trace:
        raise ValueError(f"run reported no value for {missing}")
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}


def run_once(binary, workload, seed, seconds, trace):
    """One prepared, measured and checked run; returns the program's report."""
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        common = ["--workload", workload, "--seed", str(seed), "--dir", str(work)]
        subprocess.run([str(binary), "prepare"] + common, check=True,
                       stdout=sys.stderr, timeout=deadline - time.monotonic())
        started = time.monotonic()
        proc = subprocess.run(
            [str(binary), "run"] + common + ["--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=True, timeout=deadline - time.monotonic())
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["metrics"] = with_units(report["metrics"], trace)
        report["info"]["run_wall_s"] = time.monotonic() - started
        results = ROOT / ".bench_results"
        results.mkdir(exist_ok=True)
        stem = f"{workload}-seed{seed}-trace{trace}"
        if (work / "trace.json").exists():
            shutil.move(str(work / "trace.json"), str(results / f"{stem}.trace.json"))
        record = dict(report, workload=workload, seed=seed, seconds=seconds, trace=trace,
                      host=host_facts())
        path = results / f"{stem}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        log(f"result written to {path.relative_to(ROOT)}")
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def steadiness(binary, args):
    """Runs K seeds and prints median / quartiles / spread per metric."""
    values = {}
    units = {}
    walls = []
    for k in range(args.repeat):
        report = run_once(binary, args.workload, args.seed + k, args.seconds, args.trace)
        walls.append(report["info"]["run_wall_s"])
        if not report["correct"]:
            log(f"seed {args.seed + k}: run was not correct")
        for name, m in report["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    summary = {}
    print(f"{args.workload}: {args.repeat} seeds from {args.seed}, trace={args.trace}, "
          f"run wall median {statistics.median(walls):.1f} s")
    print(f"{'metric':34} {'unit':>6} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name in sorted(values):
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": units[name]}
        print(f"{name:34} {units[name]:>6} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f}")
    print(json.dumps({"workload": args.workload, "seeds": args.repeat, "first_seed": args.seed,
                      "trace": args.trace, "run_wall_s": walls, "metrics": summary}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: run this many seeds and print the spread")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        binary = build()
        if args.repeat > 0:
            steadiness(binary, args)
            return 0
        report = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1
    for name, m in sorted(report["metrics"].items()):
        log(f"  {name:34} {m['value']:.6g} {m['unit']}")
    if report.get("gate_failures"):
        log(f"correctness gate: {report['gate_failures']}")
    result = {key: report[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
