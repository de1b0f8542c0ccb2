"""Regenerate ``references.json`` from the program at the current commit.

Run only at a commit whose outputs are trusted, from the repository root:

    python3 bench/record_references.py

Each workload runs once, traced, at seed 0.  No output the gate checks
depends on the seed: ``verify`` and ``solve`` print no sampled Hoelder norm,
and the study's largest N stays below the exact-estimator limit.
"""

import json
import sys

from harness import REFERENCES, WORKLOADS, parse_report, parse_study
from spans import Tracer, instrumented
from worker import _import_isomesh, run_op

REL_TOL = 1e-6

# Keys whose exact value a correct program may change: iteration counts of
# the solver, and the isotropy residual, checked against iso_scale instead.
_UNCHECKED = {"solve_iterations", "iso_residual_max"}


def report_reference(report: dict, tol: float) -> dict:
    ref = {"exact": {}, "close": {}, "at_most": {}}
    for key, value in report.items():
        if key in _UNCHECKED:
            continue
        if key == "solve_residual_c0":
            ref["at_most"][key] = tol
        elif isinstance(value, float):
            ref["close"][key] = value
        else:
            ref["exact"][key] = value
    return ref


def main() -> int:
    modules = _import_isomesh()
    cli = modules["isomesh.cli"]
    tol = cli.PipelineConfig().tol
    refs = {"rel_tol": REL_TOL, "iso_cert_factor": cli.ISO_CERT_FACTOR, "workloads": {}}
    for name, workload in WORKLOADS.items():
        tracer = Tracer()
        run_id = tracer.begin_run()
        with instrumented(tracer, modules), tracer.span("op"):
            code, stdout, stderr, _, _ = run_op(cli, workload.command(0))
        if code != workload.exit_code:
            print(f"{name}: exit {code}, expected {workload.exit_code}\n{stderr}", file=sys.stderr)
            return 1
        if workload.argv[0] == "study":
            rows, _ = parse_study(stdout)
            ref = {"rows": [report_reference(row, tol) for row in rows]}
        else:
            ref = report_reference(parse_report(stdout), tol)
        values = tracer.values[run_id]
        ref["traced"] = {k: values[k] for k in ("distance_c0", "distance_c1") if k in values}
        if "embedding_pairs" in values:
            ref["traced"]["embedding_pairs"] = values["embedding_pairs"][-1]
        refs["workloads"][name] = ref
        print(f"{name}: recorded", file=sys.stderr)
    with open(REFERENCES, "w") as handle:
        json.dump(refs, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
