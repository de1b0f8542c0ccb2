"""Workloads, output parsers and the correctness gate of the benchmark.

Every op is one call of ``isomesh.cli.main(argv)``.  Its exit code and the
text it prints are checked against references kept in ``references.json``
next to this file; any mismatch makes the op count as failed.
"""

import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"

#: Acceptance windows of the study's fitted log-log slopes (the paper's
#: O(N^-2) C0 and O(N^-1) C1 rates).
SLOPE_WINDOWS = {"pl_c0": (-2.3, -1.7), "pl_c1": (-1.3, -0.7)}


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    exit_code: int

    def command(self, seed: int) -> list:
        return [*self.argv, "--seed", str(seed)]


# Why each workload was chosen, and why N is smaller than at the ROADMAP's
# largest size, is recorded in METRICS.md.  In short: one op takes 1-3 s on a
# 2-core machine, so a run holds a warm-up op and several timed ops, and the
# layer each workload stresses still dominates its op.
WORKLOADS = {
    w.name: w
    for w in (
        # Full certify path; C0/C1 distances dominate, sampled Hoelder norm.
        Workload("certify-f8c-n96", ("verify", "--spec", "product:figure8,circle", "--n", "96"), 0),
        # Embedding check: BVH broadphase and tri-tri narrowphase; exit 4.
        Workload(
            "embed-f8c-n12",
            ("verify", "--spec", "product:figure8,circle", "--n", "12", "--embedding-check"),
            4,
        ),
        # Small-N study: fixed per-call costs and the exact Hoelder norm.
        Workload("study-f8c-small", ("study", "--spec", "product:figure8,circle"), 0),
        # Latency of `isomesh solve`; the most Gauss-Newton/LSQR work.
        Workload("solve-f8f8-n96", ("solve", "--spec", "product:figure8,figure8", "--n", "96"), 0),
    )
}


def load_references(path=REFERENCES) -> dict:
    with open(path) as handle:
        return json.load(handle)


# -- parsers ------------------------------------------------------------------


def _value(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_report(text: str) -> dict:
    """``key = value`` lines of ``format_report`` into a dict of typed values."""
    report = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"not a report line: {line!r}")
        report[key.strip()] = _value(value.strip())
    return report


def parse_study(text: str) -> tuple[list, dict]:
    """Study CSV into (rows as dicts, slopes); NA cells become None."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty study table")
    header = lines[0].split(",")
    rows, slopes = [], {}
    for line in lines[1:]:
        if line.startswith("# slope "):
            key, _, value = line[len("# slope "):].partition(" = ")
            slopes[key] = None if value == "NA" else float(value)
        elif line.startswith("#"):
            continue
        else:
            cells = line.split(",")
            if len(cells) != len(header):
                raise ValueError(f"row has {len(cells)} cells, header {len(header)}")
            rows.append({k: None if c == "NA" else _value(c) for k, c in zip(header, cells)})
    return rows, slopes


# -- correctness gate -----------------------------------------------------------


def _close(actual, expected, rel_tol) -> bool:
    return (
        isinstance(actual, (int, float))
        and math.isfinite(actual)
        and math.isclose(actual, expected, rel_tol=rel_tol, abs_tol=0.0)
    )


def _check_fields(found: dict, ref: dict, rel_tol: float, where: str) -> list:
    problems = []
    for key, want in ref.get("exact", {}).items():
        if found.get(key) != want:
            problems.append(f"{where}{key} = {found.get(key)!r}, expected {want!r}")
    for key, want in ref.get("close", {}).items():
        if not _close(found.get(key), want, rel_tol):
            problems.append(f"{where}{key} = {found.get(key)!r}, expected {want!r} (rel {rel_tol})")
    for key, limit in ref.get("at_most", {}).items():
        got = found.get(key)
        if not isinstance(got, (int, float)) or not got <= limit:
            problems.append(f"{where}{key} = {got!r}, expected <= {limit!r}")
    return problems


def check_op(name: str, exit_code, stdout: str, references: dict) -> list:
    """Problems with one op's result; an empty list means the op is correct."""
    ref = references["workloads"][name]
    rel_tol = references["rel_tol"]
    problems = []
    if exit_code != WORKLOADS[name].exit_code:
        problems.append(f"exit code {exit_code!r}, expected {WORKLOADS[name].exit_code}")
    try:
        if "rows" in ref:
            rows, slopes = parse_study(stdout)
            problems += _check_study(rows, slopes, ref, rel_tol)
        else:
            report = parse_report(stdout)
            problems += _check_fields(report, ref, rel_tol, "")
            if "iso_residual_max" in report and "iso_scale" in report:
                problems += _check_isotropy(report, references["iso_cert_factor"])
    except ValueError as exc:
        problems.append(f"unparseable output: {exc}")
    return problems


def _check_isotropy(report: dict, factor: float) -> list:
    residual, scale = report["iso_residual_max"], report["iso_scale"]
    if not (isinstance(residual, float) and isinstance(scale, float)):
        return [f"iso_residual_max/iso_scale not numbers: {residual!r}, {scale!r}"]
    if not residual <= factor * scale * scale:
        return [f"iso_residual_max {residual!r} above {factor} * iso_scale^2"]
    return []


def _check_study(rows, slopes, ref, rel_tol) -> list:
    problems = []
    if [r.get("n") for r in rows] != [r["exact"]["n"] for r in ref["rows"]]:
        problems.append(f"study rows n = {[r.get('n') for r in rows]}")
        return problems
    for row, want in zip(rows, ref["rows"]):
        problems += _check_fields(row, want, rel_tol, f"n={row['n']}: ")
    for key, (lo, hi) in SLOPE_WINDOWS.items():
        value = slopes.get(key)
        if value is None or not lo < value < hi:
            problems.append(f"slope {key} = {value!r}, outside ({lo}, {hi})")
    return problems


def check_trace(name: str, values: dict, references: dict) -> list:
    """Problems with values captured at layer boundaries in a traced op.

    Checks the embedding witness pair set and the C0/C1 distances returned
    inside the pipeline, when the reference records them and the op made
    the call (a later version may compute fewer quantities per command).
    """
    ref = references["workloads"][name].get("traced", {})
    rel_tol = references["rel_tol"]
    problems = []
    if "embedding_pairs" in ref:
        got = values.get("embedding_pairs")
        want = sorted(tuple(p) for p in ref["embedding_pairs"])
        if got is None or [tuple(p) for p in got[-1]] != want:
            count = None if got is None else len(got[-1])
            problems.append(f"embedding witness pairs differ from the {len(want)} reference pairs "
                            f"(got {count})")
    for key in ("distance_c0", "distance_c1"):
        if key in ref and key in values:
            got, want = sorted(values[key]), sorted(ref[key])
            if len(got) != len(want) or not all(
                _close(g, w, rel_tol) for g, w in zip(got, want)
            ):
                problems.append(f"{key} returned {got}, expected {want} (rel {rel_tol})")
    return problems


# -- statistics -----------------------------------------------------------------


def summary(values) -> dict:
    """Median, quartiles and sample count of a list of numbers."""
    values = list(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}
