#!/usr/bin/env python3
"""Seeded scale inputs for the benchmark workloads.

The generators reuse the linear-congruential stream and the language factors
of scripts/make_demo_data.py, so a seed fixes every byte of the CSVs written.
Each generator returns the workload's descriptors: the input properties the
pipelines' cost depends on.

    python3 perfbench/gen.py --workload speedup-scale --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SPEEDUP_LANGUAGES = ("C", "Go", "Java", "Python")
SPEEDUP_PRIMARY_TASKS = 30
SPEEDUP_CALIB_TASKS = 30
SPEEDUP_SIZES = (1000, 2000)
SPEEDUP_VARIANTS = ("v1", "v2", "v3", "v4")

DEFECT_CLASSES = 2000


def _demo_module():
    """scripts/make_demo_data.py, loaded by path (it is not a package)."""
    path = ROOT / "scripts" / "make_demo_data.py"
    spec = importlib.util.spec_from_file_location("make_demo_data", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stream(demo, seed: int, salt: int):
    """An Lcg whose state mixes the workload seed with a per-file salt."""
    return demo.Lcg((seed * 0x9E3779B1 + salt * 0x85EBCA6B) & 0xFFFFFFFF)


def _write(path: Path, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def speedup_scale(seed: int, out: Path) -> dict:
    """Benchmark and primary CSVs in the demo recipe, at Rosetta-like task counts.

    Every language has every task, so each pair shares all primary tasks
    (P per pair) and all calibration tasks, sizes and variant pairings
    (D = tasks * sizes * variants**2 deltas per pair).
    """
    demo = _demo_module()
    rng = _stream(demo, seed, 1)
    lines = ["language,task,input_size,variant,metric,value"]
    for t in range(1, SPEEDUP_CALIB_TASKS + 1):
        scale = rng.uniform(0.5, 8.0)
        for lang in SPEEDUP_LANGUAGES:
            slowdown = {v: 1.0 if v == "v1" else rng.uniform(1.1, 1.6) for v in SPEEDUP_VARIANTS}
            for size in SPEEDUP_SIZES:
                growth = (size / 1000) ** rng.uniform(1.0, 1.15)
                for variant in SPEEDUP_VARIANTS:
                    tm = demo.TIME_FACTOR[lang] * scale * growth * slowdown[variant] * rng.uniform(0.92, 1.08)
                    lines.append(f"{lang},b{t:02d},{size},{variant},time,{tm:.4f}")
                    m = (demo.MEMORY_FACTOR[lang] * 8.0 * (size / 1000) ** 0.5
                         * slowdown[variant] ** 0.3 * rng.uniform(0.95, 1.05))
                    lines.append(f"{lang},b{t:02d},{size},{variant},memory,{m:.2f}")
    _write(out / "scale_bench.csv", lines)

    rng = _stream(demo, seed, 2)
    lines = ["language,task,metric,value"]
    for t in range(1, SPEEDUP_PRIMARY_TASKS + 1):
        scale = rng.uniform(0.8, 6.0)
        for lang in SPEEDUP_LANGUAGES:
            tm = demo.TIME_FACTOR[lang] * scale * rng.uniform(0.85, 1.15)
            lines.append(f"{lang},p{t:02d},time,{tm:.4f}")
            m = demo.MEMORY_FACTOR[lang] * 9.0 * rng.uniform(0.9, 1.1)
            lines.append(f"{lang},p{t:02d},memory,{m:.2f}")
    _write(out / "scale_primary.csv", lines)

    return {
        "languages": len(SPEEDUP_LANGUAGES),
        "pairs": len(list(combinations(SPEEDUP_LANGUAGES, 2))),
        "primary_per_pair": SPEEDUP_PRIMARY_TASKS,
        "deltas_per_pair": SPEEDUP_CALIB_TASKS * len(SPEEDUP_SIZES) * len(SPEEDUP_VARIANTS) ** 2,
    }


def bug_rows(demo, seed: int, n_classes: int) -> list[tuple[str, int, int, int, int]]:
    """Per-class counts in the demo_bugs.csv recipe: Weibull-like strong counts."""
    rng = _stream(demo, seed, 3)
    rows = []
    for i in range(1, n_classes + 1):
        u = rng.next_float()
        strong = int(8.0 * (-math.log(1.0 - u)) ** (1.0 / 0.9))
        simple = int(strong * rng.uniform(0.2, 0.6))
        methods = 3 + int(rng.next_float() * 57)
        loc = methods * (20 + int(rng.next_float() * 30))
        rows.append((f"c{i:04d}", simple, strong, methods, loc))
    return rows


def bug_descriptors(rows) -> dict:
    n = len(rows)
    return {
        "classes": n,
        "distinct_strong_share": len({r[2] for r in rows}) / n,
        "distinct_simple_share": len({r[1] for r in rows}) / n,
    }


def defects_scale(seed: int, out: Path) -> dict:
    rows = bug_rows(_demo_module(), seed, DEFECT_CLASSES)
    lines = ["class_id,found_simple,found_strong,public_methods,loc"]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    _write(out / "scale_bugs.csv", lines)
    return bug_descriptors(rows)


def paper_demo(seed: int, out: Path) -> dict:
    """The bundled data/ files; nothing is generated and the seed is unused."""
    bugs = []
    with open(ROOT / "data" / "demo_bugs.csv", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            cid, simple, strong, *_ = line.strip().split(",")
            bugs.append((cid, int(simple), int(strong)))
    return bug_descriptors(bugs)


GENERATORS = {
    "paper-demo": paper_demo,
    "speedup-scale": speedup_scale,
    "defects-scale": defects_scale,
}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's inputs under `out` and return its descriptors."""
    out.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](seed, out)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    print(json.dumps(generate(args.workload, args.seed, args.out), indent=2, sort_keys=True))
