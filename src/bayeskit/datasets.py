"""CSV ingestion with schema validation.

`_read_table` is the one reader. It decodes every file as UTF-8, checks the
header against its schema, skips blank rows and raises on the first row whose
field count differs from the header's, lazily, so the first offending line
is reported whatever kind of error it holds. Line numbers are 1-based and
count the header and blank rows. `_read_rows` strips the fields for most
loaders; `load_bug_counts`, which reads the largest files, converts its raw
fields with `int` (which ignores surrounding whitespace) and leaves the count
ranges to `BugCounts`. Numbers must be finite and within the float range.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .defects import BugCounts
from .errors import DuplicateKey, InvalidValue, SchemaMismatch
from .outcomes import OutcomeCounts, OutcomeDistribution, rescale_outcome
from .speedup import BenchmarkDataset, BenchmarkRecord

SCHEMAS = {
    "outcomes": ("project_id", "group", "raw_outcome"),
    "outcomes_binned": ("project_id", "group", "category"),
    "baseline": ("category", "k", "probability"),
    "bench": ("language", "task", "input_size", "variant", "metric", "value"),
    "primary": ("language", "task", "metric", "value"),
    "bugs": ("class_id", "found_simple", "found_strong", "public_methods", "loc"),
}


def _read_table(path, expected_headers):
    """Return the matched header and an iterator of (line_number, raw fields).

    `expected_headers` is a list of acceptable header tuples. The iterator
    skips blank rows; every other row must have as many fields as the header.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise SchemaMismatch(f"{path}: empty file, expected a header row")
    header = tuple(h.strip() for h in rows[0])
    if header not in expected_headers:
        expected = " or ".join(",".join(h) for h in expected_headers)
        raise SchemaMismatch(f"{path}: header {','.join(header)!r} does not match {expected!r}")

    def body():
        for line, row in enumerate(rows[1:], start=2):
            if len(row) != len(header):
                if not row:
                    continue
                raise InvalidValue(f"{path} line {line}: expected {len(header)} fields, got {len(row)}")
            yield line, row

    return header, body()


def _read_rows(path, expected_headers):
    """`_read_table` with every field stripped."""
    header, body = _read_table(path, expected_headers)
    return header, ((line, [field.strip() for field in row]) for line, row in body)


def _parse_float(path, line, field, raw, positive=False):
    try:
        value = float(raw)
    except ValueError:
        raise InvalidValue(f"{path} line {line}: {field}={raw!r} is not a number") from None
    if not math.isfinite(value):
        raise InvalidValue(f"{path} line {line}: {field}={raw!r} is not finite")
    if positive and value <= 0:
        raise InvalidValue(f"{path} line {line}: {field}={raw!r} must be positive")
    return value


def _parse_int(path, line, field, raw, minimum=None):
    try:
        value = int(raw)
    except ValueError:
        raise InvalidValue(f"{path} line {line}: {field}={raw!r} is not an integer") from None
    if minimum is not None and value < minimum:
        raise InvalidValue(f"{path} line {line}: {field}={raw!r} must be >= {minimum}")
    if value > sys.float_info.max:
        raise InvalidValue(f"{path} line {line}: {field}={raw!r} is too large for a float")
    return value


@dataclass(frozen=True)
class OutcomeTable:
    """Per-project outcome rows: either raw 1..10 scores or pre-binned categories.

    `path` and `lines` say where the rows were read (`load_outcomes` sets
    them); errors about a row then name its file and line.
    """

    rows: tuple[tuple[str, str, int], ...]  # (project_id, group, value)
    binned: bool
    path: str | None = None
    lines: tuple[int, ...] = ()

    def groups(self) -> tuple[str, ...]:
        seen = []
        for _, group, _ in self.rows:
            if group not in seen:
                seen.append(group)
        return tuple(seen)

    def to_counts(
        self,
        k: int,
        rescale_b: int = 1,
        hypothesis_group: str | None = None,
    ) -> OutcomeCounts:
        """Bin raw scores when needed and tally the two groups.

        `hypothesis_group` names the group hypothesized to be better; it
        defaults to the first group in file order.
        """
        groups = self.groups()
        if len(groups) != 2:
            where = "" if self.path is None else f"{self.path}: "
            raise InvalidValue(f"{where}expected exactly two groups, found {groups}")
        first = hypothesis_group if hypothesis_group is not None else groups[0]
        if first not in groups:
            raise InvalidValue(f"hypothesis group {first!r} not among {groups}")
        second = groups[1] if first == groups[0] else groups[0]
        tallies = {first: [0] * k, second: [0] * k}
        for i, (project, group, value) in enumerate(self.rows):
            category = value if self.binned else rescale_outcome(value, rescale_b, k - 1)
            if not 0 <= category < k:
                where = "" if self.path is None else f"{self.path} line {self.lines[i]}: "
                raise InvalidValue(
                    f"{where}project {project!r}: category {category} outside 0..{k - 1}"
                )
            tallies[group][category] += 1
        return OutcomeCounts(tuple(tallies[first]), tuple(tallies[second]), first, second)


def load_outcomes(path) -> OutcomeTable:
    """Read `outcomes.csv`: project_id, group, and raw_outcome or category."""
    header, rows = _read_rows(path, [SCHEMAS["outcomes"], SCHEMAS["outcomes_binned"]])
    binned = header == SCHEMAS["outcomes_binned"]
    seen = set()
    out = []
    lines = []
    for line, row in rows:
        project, group, raw = row
        if project in seen:
            raise DuplicateKey(f"{path} line {line}: duplicate project_id {project!r}")
        seen.add(project)
        value = _parse_int(path, line, header[2], raw, minimum=0)
        if not binned and not 1 <= value <= 10:
            raise InvalidValue(f"{path} line {line}: raw_outcome {value} outside 1..10")
        out.append((project, group, value))
        lines.append(line)
    return OutcomeTable(tuple(out), binned, str(path), tuple(lines))


def load_baselines(path) -> dict[str, OutcomeDistribution]:
    """Read `baselines.csv` into named outcome distributions.

    Every named distribution must cover categories 0..K-1 exactly once and
    sum to 1 within 1e-6.
    """
    _, rows = _read_rows(path, [SCHEMAS["baseline"]])
    cells: dict[str, dict[int, float]] = {}
    for line, row in rows:
        name, k_raw, p_raw = row
        k = _parse_int(path, line, "k", k_raw, minimum=0)
        p = _parse_float(path, line, "probability", p_raw)
        if not 0.0 <= p <= 1.0:
            raise InvalidValue(f"{path} line {line}: probability {p} outside [0, 1]")
        per = cells.setdefault(name, {})
        if k in per:
            raise DuplicateKey(f"{path} line {line}: duplicate ({name!r}, k={k})")
        per[k] = p
    out = {}
    for name in sorted(cells):
        per = cells[name]
        k_max = max(per)
        if len(per) != k_max + 1:  # distinct keys >= 0: they cover 0..k_max if there are k_max + 1
            raise InvalidValue(f"{path}: baseline {name!r} does not cover categories 0..{k_max}")
        try:
            out[name] = OutcomeDistribution(tuple(per[k] for k in range(k_max + 1)))
        except ValueError as exc:
            raise InvalidValue(f"{path}: baseline {name!r}: {exc}") from None
    return out


def _load_measurements(path, schema: str) -> dict[str, BenchmarkDataset]:
    """Read `bench.csv` or `primary.csv` rows into one dataset per metric.

    A primary row is read as a bench row at input size 1 with variant
    "best"; a duplicate key is reported in the file's own columns.
    """
    _, rows = _read_rows(path, [SCHEMAS[schema]])
    seen = set()
    per_metric: dict[str, list[BenchmarkRecord]] = {}
    for line, row in rows:
        language, task, *setup, metric, value_raw = row
        if setup:  # bench: input_size, variant
            setup[0] = _parse_float(path, line, "input_size", setup[0], positive=True)
        value = _parse_float(path, line, "value", value_raw, positive=True)
        key = (language, task, *setup, metric)
        if key in seen:
            raise DuplicateKey(f"{path} line {line}: duplicate key {key}")
        seen.add(key)
        size, variant = setup or (1.0, "best")
        per_metric.setdefault(metric, []).append(
            BenchmarkRecord(language, task, size, variant, value)
        )
    return {metric: BenchmarkDataset(recs, metric) for metric, recs in sorted(per_metric.items())}


def load_benchmarks(path) -> dict[str, BenchmarkDataset]:
    """Read `bench.csv` into one dataset per metric."""
    return _load_measurements(path, "bench")


def load_primary(path) -> dict[str, BenchmarkDataset]:
    """Read `primary.csv` (one best measurement per language and task) per metric."""
    return _load_measurements(path, "primary")


def _bug_fields(path, line, row) -> tuple:
    """A bugs.csv row's four counts, parsed field by field; the first bad field raises."""
    _, simple_raw, strong_raw, methods_raw, loc_raw = (field.strip() for field in row)
    simple = _parse_int(path, line, "found_simple", simple_raw, minimum=0)
    strong = _parse_int(path, line, "found_strong", strong_raw, minimum=0)
    methods = _parse_int(path, line, "public_methods", methods_raw, minimum=1) if methods_raw else None
    loc = _parse_int(path, line, "loc", loc_raw, minimum=1) if loc_raw else None
    return simple, strong, methods, loc


def load_bug_counts(path) -> tuple[BugCounts, ...]:
    """Read `bugs.csv`; public_methods and loc may be blank.

    Each row is converted from its raw fields and range-checked by
    `BugCounts`; a row that fails goes through `_bug_fields`, whose error
    names the offending field.
    """
    _, rows = _read_table(path, [SCHEMAS["bugs"]])
    seen = set()
    out = []
    for line, row in rows:
        class_id, simple, strong, methods, loc = row
        class_id = class_id.strip()
        if class_id in seen:
            raise DuplicateKey(f"{path} line {line}: duplicate class_id {class_id!r}")
        seen.add(class_id)
        try:
            out.append(BugCounts(class_id, int(simple), int(strong),
                                 int(methods) if methods else None, int(loc) if loc else None))
            continue
        except ValueError:
            pass  # re-read outside the handler, so the error carries no context
        out.append(BugCounts(class_id, *_bug_fields(path, line, row)))
    return tuple(out)
