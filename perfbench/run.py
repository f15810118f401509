#!/usr/bin/env python3
"""Benchmark of the bayeskit command line: one workload, one run.

    python3 perfbench/run.py --workload paper-demo --seed 1 --seconds 40 --trace 0

Run from the root of a bayeskit checkout.  The workload's inputs are made
from --seed before any timing.  Jobs then run one at a time, each in a fresh
interpreter that imports `bayeskit.cli` and calls `main(argv)` (a closed
loop with one client), round and round over the workload's job list while
the next job still fits in --seconds.  Every job's outputs are checked.  With
--trace 1, traced passes alternate with untraced ones and the per-layer
metrics of BENCHMARK.json are reported instead of the end-to-end ones.  The last line of
standard output is the result as JSON; the lines before it are for people.
See perfbench/DESIGN.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
REFERENCE = HERE / "reference"

#: interpreters that only import bayeskit.cli, for setup_s and the import breakdown
IMPORT_PROBES = 3
IMPORTTIME_PROBES = 3
MIN_UNTRACED_PASSES = 2
#: a run must end within 180 s; jobs still going near that are killed and failed
RUN_DEADLINE_S = 165.0

DEMO_JOBS = {
    "outcomes": ["compare-outcomes", "--data", "data/project_outcomes.csv",
                 "--baselines", "data/outcome_baselines.csv", "--simplex-step", "0.01"],
    "performance_time": ["compare-performance", "--primary", "data/demo_primary.csv",
                         "--calib", "data/demo_bench.csv", "--metric", "time", "--plots"],
    "performance_memory": ["compare-performance", "--primary", "data/demo_primary.csv",
                           "--calib", "data/demo_bench.csv", "--metric", "memory"],
    "defect_fit": ["fit-defects", "--data", "data/demo_bugs.csv", "--pareto-xmax", "60"],
    "total_bugs": ["estimate-total-bugs", "--data", "data/demo_bugs.csv"],
    "derived": ["derived-plots", "--data", "data/demo_bugs.csv", "--at-most", "5"],
}


def workload_jobs(workload: str, inputs: str) -> dict[str, list[str]]:
    """Job name -> bayeskit argv without --out; paths are relative to the checkout root."""
    if workload == "paper-demo":
        return DEMO_JOBS
    if workload == "speedup-scale":
        return {"performance_time": [
            "compare-performance", "--primary", f"{inputs}/scale_primary.csv",
            "--calib", f"{inputs}/scale_bench.csv", "--metric", "time", "--plots"]}
    bugs = f"{inputs}/scale_bugs.csv"
    return {
        "defect_fit": ["fit-defects", "--data", bugs, "--pareto-xmax", "60"],
        "total_bugs": ["estimate-total-bugs", "--data", bugs],
        "derived": ["derived-plots", "--data", bugs, "--at-most", "5"],
    }


def reference_path(workload: str, seed: int) -> Path:
    name = workload if workload == "paper-demo" else f"{workload}-seed{seed}"
    return REFERENCE / f"{name}.json"


def tree_hashes(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def summary(values) -> str:
    """median [q1, q3] n=... of a sample."""
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.6g} n=1"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{med:.6g} [q1 {q1:.6g}, q3 {q3:.6g}] n={len(values)}"


class Bench:
    """One run of one workload: starts the job processes and checks what they write."""

    def __init__(self, workload: str, seed: int, deadline: float, work: Path | None = None):
        self.workload = workload
        self.seed = seed
        self.work = work or WORK / workload
        self.deadline = deadline
        shutil.rmtree(self.work, ignore_errors=True)
        inputs = self.work / "inputs"
        self.descriptors = gen.generate(workload, seed, inputs)
        self.jobs = workload_jobs(workload, Path(os.path.relpath(inputs, ROOT)).as_posix())
        ref = reference_path(workload, seed)
        self.reference = check.load_json(ref) if ref.is_file() else None
        src = str(ROOT / "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.setup_samples: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.warnings = 0
        # per job name: output hashes and check problems of its first completed run
        self.first: dict[str, tuple[dict, list[str]]] = {}

    def _spawn(self, args: list[str]):
        timeout = max(1.0, self.deadline - time.monotonic())
        return subprocess.run([sys.executable, *args], cwd=ROOT, env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=timeout)

    def probe_imports(self) -> None:
        """Warm the bytecode cache once, then time import-only interpreters."""
        result = self.work / "probe.json"
        job = str(HERE / "job.py")
        self._spawn([job, str(result), "--import-only"])
        for _ in range(IMPORT_PROBES):
            started = time.monotonic()
            self._spawn([job, str(result), "--import-only"]).check_returncode()
            self.setup_samples.append(check.load_json(result)["imported"] - started)

    def import_breakdown(self) -> dict[str, float]:
        """Median cumulative import time of numpy and scipy under `python -X importtime`."""
        samples: dict[str, list[float]] = {"numpy": [], "scipy": []}
        for _ in range(IMPORTTIME_PROBES):
            proc = self._spawn(["-X", "importtime", "-c", "import bayeskit.cli"])
            proc.check_returncode()
            for package, seconds in importtime_totals(proc.stderr.decode()).items():
                if package in samples:
                    samples[package].append(seconds)
        return {f"import.{p}_s": statistics.median(v) if v else 0.0 for p, v in samples.items()}

    def run_job(self, index: int, name: str, traced: bool) -> dict:
        """Run one job once; the record holds its timings, spans and verdict."""
        argv = self.jobs[name]
        out = self.work / f"pass{index}" / name
        result = self.work / "result.json"
        spans = self.work / "spans.json"
        result.unlink(missing_ok=True)
        args = [str(HERE / "job.py"), str(result)]
        if traced:
            args += ["--trace", str(spans)]
        args += ["--", *argv, "--out", os.path.relpath(out, ROOT)]
        self.attempted += 1
        started = time.monotonic()
        try:
            proc = self._spawn(args)
        except subprocess.TimeoutExpired:
            self.failed += 1
            print(f"{name}: killed at the run deadline", file=sys.stderr)
            raise
        record = {"name": name, "command": argv[0], "elapsed": time.monotonic() - started}
        problems = []
        if proc.returncode != 0 or not result.is_file():
            problems.append(f"exit code {proc.returncode}: {proc.stderr.decode()[-400:]}")
        else:
            timing = check.load_json(result)
            record.update(setup=timing["imported"] - started,
                          wall=timing["ended"] - timing["imported"],
                          cpu=timing["cpu_s"], rss_mb=timing["maxrss_kb"] * 1024 / 1e6)
            self.setup_samples.append(record["setup"])
            if traced:
                record["spans"] = json.loads(spans.read_text(encoding="utf-8"))
            problems += self._verdict(name, out)
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAIL {name} (pass {index}): {p}", file=sys.stderr)
        record["ok"] = not problems
        if index > 0:  # pass 0 stays for inspection; later passes were compared to it
            shutil.rmtree(out, ignore_errors=True)
        return record

    def run_pass(self, index: int, traced: bool) -> list[dict]:
        """Run every job once, in the workload's order."""
        return [self.run_job(index, name, traced) for name in self.jobs]

    def run_cycle(self, seconds: float, records: list[dict]) -> None:
        """Untraced jobs in the workload's order, round and round, for about `seconds`.

        Each job runs MIN_UNTRACED_PASSES times at least.  After that, the next
        job starts only if it would end within `seconds` of the first job's
        start, judged by how long its own last run took.  So the run ends near
        `seconds` without a tail left idle.  Each record is appended to
        `records` as its job ends.
        """
        names = list(self.jobs)
        last: dict[str, float] = {}
        t0 = time.monotonic()
        for i in itertools.count():
            name = names[i % len(names)]
            index = i // len(names)
            if index >= MIN_UNTRACED_PASSES and \
                    time.monotonic() - t0 + last[name] > seconds:
                break
            records.append(self.run_job(index, name, traced=False))
            last[name] = records[-1]["elapsed"]

    def _verdict(self, name: str, out: Path) -> list[str]:
        hashes = tree_hashes(out)
        if name not in self.first:
            ref = self.reference.get(name) if self.reference else None
            problems = check.problems(out, self.descriptors, ref)
            self.first[name] = (hashes, problems)
            self.warnings += sum(p.startswith(check.WARNING) for p in problems)
            return problems
        first_hashes, problems = self.first[name]
        if hashes != first_hashes:
            changed = sorted(k for k in set(hashes) | set(first_hashes)
                             if hashes.get(k) != first_hashes.get(k))
            return problems + [f"output differs from the first run: {changed}"]
        return problems

    def write_reference(self) -> Path:
        """Store the first pass's digests as this workload's and seed's reference."""
        ref = {}
        for name, argv in self.jobs.items():
            found = check.digest(self.work / "pass0" / name)
            if argv[0] == "compare-performance":
                steps = speedup_steps(argv)
                found["pairs"] = {pair: v + [steps[pair]] for pair, v in found["pairs"].items()}
            if found:
                ref[name] = found
        path = reference_path(self.workload, self.seed)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return path


def importtime_totals(report: str) -> dict[str, float]:
    """Seconds per top-level package, summed over its outermost imports.

    `-X importtime` prints one line per module when it finishes loading,
    indented by nesting depth, so a module's parent is the next line with a
    shallower depth.
    """
    entries = []
    for line in report.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)", line)
        if m:
            entries.append((int(m.group(1)), len(m.group(2)) // 2, m.group(3).split(".")[0]))
    totals: dict[str, float] = {}
    for i, (cumulative, depth, package) in enumerate(entries):
        parent = next((e for e in entries[i + 1:] if e[1] < depth), None)
        if parent is None or parent[2] != package:
            totals[package] = totals.get(package, 0.0) + cumulative / 1e6
    return totals


def speedup_steps(argv: list[str]) -> dict[str, float]:
    """Posterior grid spacing per pair, as `speedup_posterior` lays the grid out."""
    sys.path.insert(0, str(ROOT / "src"))
    from itertools import combinations

    from bayeskit import datasets, density, speedup

    opts = dict(zip(argv[1::2], argv[2::2]))
    metric = opts["--metric"]
    primary = datasets.load_primary(ROOT / opts["--primary"])[metric]
    calib = datasets.load_benchmarks(ROOT / opts["--calib"])[metric]
    steps = {}
    for l1, l2 in combinations(sorted(set(calib.languages()) & set(primary.languages())), 2):
        speeds = speedup.calib_speedups(calib, l1, l2)
        lo, hi, n = speedup.ratio_grid(speedup.primary_speedups(primary, l1, l2) + speeds,
                                       density.scott_bandwidth(speeds))
        steps[f"{l1} vs {l2}"] = (hi - lo) / (n - 1)
    return steps


def thread_setting() -> str:
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = ", ".join(f"{n}={os.environ.get(n, 'unset')}" for n in names)
    return f"cpus={os.cpu_count()} usable={len(os.sched_getaffinity(0))} {env}"


def job_total(records: list[dict], key: str) -> float:
    """Sum over the workload's jobs of each job's mean `key` over its runs.

    The mean over the whole run, not the median of two or three passes: when
    the processor's speed moves between a fast and a slow state for tens of
    seconds, a median follows whichever state held most of the run, which
    spreads runs further apart than the mean does.
    """
    by_job: dict[str, list[float]] = {}
    for r in records:
        if key in r:
            by_job.setdefault(r["name"], []).append(r[key])
    return sum(statistics.fmean(v) for v in by_job.values())


def end_to_end_values(bench: Bench, records: list[dict]) -> dict[str, float]:
    """The end-to-end metrics of a run from its untraced jobs, printing their spread."""
    rss = [r["rss_mb"] for r in records if "rss_mb" in r]
    print(f"untraced jobs run: {len(records)}; jobs attempted {bench.attempted}, "
          f"failed {bench.failed}, fail_ratio {bench.failed / max(bench.attempted, 1):.6g}")
    for name in dict.fromkeys(r["name"] for r in records):
        runs = [r for r in records if r["name"] == name and "wall" in r]
        if runs:
            print(f"{name}: wall_s {summary([r['wall'] for r in runs])}; "
                  f"cpu_s {summary([r['cpu'] for r in runs])}")
    for name, sample in (("setup_s per process", bench.setup_samples),
                         ("peak_rss_mb per process", rss)):
        if sample:
            print(f"{name}: {summary(sample)}")
    return {
        "setup_s": statistics.median(bench.setup_samples) if bench.setup_samples else 0.0,
        "wall_s": job_total(records, "wall"),
        "cpu_s": job_total(records, "cpu"),
        "peak_rss_mb": max(rss, default=0.0),
        "ok_ratio": (bench.attempted - bench.failed) / max(bench.attempted, 1),
    }


def per_layer_values(bench: Bench, traced_passes: list[list[dict]], imports: dict,
                     untraced_wall: float) -> dict[str, float]:
    """The per-layer metrics of a run: times are medians over its traced passes."""
    traced_jobs = [[(r["command"], r["spans"]) for r in recs if "spans" in r]
                   for recs in traced_passes]
    per_pass = [tracer.pass_metrics(jobs) for jobs in traced_jobs] or [tracer.pass_metrics([])]
    values = dict(imports)
    for name in per_pass[0]:
        samples = [m[name] for m in per_pass]
        values[name] = statistics.median(samples)
        if not name.endswith(("_s", ".s")) and len(set(samples)) > 1:
            print(f"perfbench: work count {name} varies across passes: {samples}",
                  file=sys.stderr)
    traced_wall = job_total([r for recs in traced_passes for r in recs], "wall")
    values["cli.warnings"] = bench.warnings
    values["trace.overhead_s"] = (traced_wall - untraced_wall
                                  if traced_wall and untraced_wall else 0.0)
    if traced_jobs:
        own = tracer.layer_self_times(traced_jobs[0])
        total = sum(own.values())
        print("self time by layer (first traced pass):")
        for layer, t in sorted(own.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<20} {t:9.4f} s  {100 * t / total:5.1f} %")
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(gen.GENERATORS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this seed's results as the reference instead of comparing")
    args = parser.parse_args()
    started = time.monotonic()

    needed = [ROOT / "src" / "bayeskit" / "cli.py", ROOT / "scripts" / "make_demo_data.py",
              ROOT / "data" / "demo_bugs.csv", ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a bayeskit checkout, missing {missing}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    bench = Bench(args.workload, args.seed, started + RUN_DEADLINE_S)
    if args.write_reference:
        bench.reference = None
    print(f"workload {args.workload} seed {args.seed}: {json.dumps(bench.descriptors)}")
    print(f"threads: {thread_setting()}")

    records: list[dict] = []  # untraced jobs, the end-to-end metrics' samples
    traced_passes: list[list[dict]] = []
    imports = {}
    try:
        bench.probe_imports()
        if args.trace:
            imports = bench.import_breakdown()
            t0 = time.monotonic()
            # rounds of one untraced and one traced pass, while one more round as
            # long as the last still ends within --seconds; one round at least
            while True:
                round_start = time.monotonic()
                index = 2 * len(traced_passes)
                records += bench.run_pass(index, traced=False)
                traced_passes.append(bench.run_pass(index + 1, traced=True))
                now = time.monotonic()
                if now - t0 + (now - round_start) > args.seconds:
                    break
        else:
            bench.run_cycle(args.seconds, records)
    except subprocess.TimeoutExpired:
        print("perfbench: run deadline reached, stopping", file=sys.stderr)

    values = end_to_end_values(bench, records)
    if args.write_reference and bench.failed == 0:
        print(f"reference written to {bench.write_reference().relative_to(ROOT)}")
    if args.trace:
        values = per_layer_values(bench, traced_passes, imports, values["wall_s"])
        reported = spec["per_layer"]
    else:
        reported = spec["end_to_end"]
    print(json.dumps({
        "correct": bench.failed == 0 and bench.attempted > 0,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed if bench.attempted else 1,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
