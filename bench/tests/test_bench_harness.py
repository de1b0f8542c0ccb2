"""Self-tests of the benchmark harness: span arithmetic, parsers, gate, tracing."""

import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from harness import WORKLOADS, check_op, check_trace, load_references, parse_report, parse_study  # noqa: E402
from spans import Span, Tracer, instrumented, op_metrics, self_times  # noqa: E402

# Outputs captured from the CLI at the commit the references were recorded at.
EMBED_REPORT = """\
spec = product:figure8,circle
n = 12
facets = 146
iso_residual_max = 1.6306400674181987e-16
iso_scale = 0.68850418970409422
isotropy = pass
immersion = pass
embedding = fail
"""

SOLVE_REPORT = """\
spec = product:figure8,figure8
n = 96
facets = 9245
mu_c0 = 0.020155683294452942
solve_iterations = 2
solve_residual_c0 = 7.8825834748386114e-14
correction_c0 = 0.00018919129445756387
"""

STUDY_CSV = """\
n,mu_c0,mu_c1w,mu_holder,correction_c0,tri_c0,pl_c0,pl_c1,immersion,embedding
8,1.1957868116185246,9.7409628320697994,4.8025436524731751,0.017788694042398245,0.098395940172091259,0.12899338642697247,4.3724386089320051,pass,skipped
16,0.39085472836457757,4.1872317577497959,1.6281450202286645,0.0046969384552856368,0.030453439799821371,0.036951697907137572,2.378046037010884,pass,skipped
32,0.089921307697878872,1.0008347794627439,0.37577210945349571,0.0011008507929537524,0.0074708264718120259,0.0088929128435717951,1.1711672189625628,pass,skipped
64,0.022674174201353911,0.25949083515431348,0.094734797449758851,0.00027119953386855783,0.0017816198355205517,0.0021941098227020515,0.57003819053357685,pass,skipped
# slope mu_c0 = -1.9282196727102698
# slope mu_c1w = -1.7755719611444052
# slope mu_holder = -1.9106580725417168
# slope correction_c0 = -2.0199488017483311
# slope tri_c0 = -1.9389277517744599
# slope pl_c0 = -1.9687465355522569
# slope pl_c1 = -0.98397525018899434
"""


@pytest.fixture(scope="module")
def refs():
    return load_references()


def test_self_time_of_synthetic_span_tree():
    spans = [
        Span("op", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("b.x", 5.5, 7.0, 3, 0),
        Span("b.y", 6.5, 8.0, 3, 0),  # overlaps b.x: 6.5-7.0 counted once
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.5, 1.5])


def test_op_metrics_derive_self_time_narrowphase_and_coverage():
    spans = [
        Span("op", 0.0, 10.0, None, 0),
        Span("cli.run_pipeline", 0.5, 9.5, 0, 0),
        Span("solver.project", 1.0, 3.0, 1, 0),
        Span("solver.lsqr", 1.5, 2.5, 2, 0),
        Span("plmap.check_embedding", 4.0, 9.0, 1, 0),
        Span("plmap.broadphase", 4.0, 5.0, 4, 0),
        Span("plmap.tri_tri", 6.0, 6.5, 4, 0),
    ]
    counts = {"plmap.candidate_pairs": 40, "plmap.embedding_witnesses": 2}
    metrics, missing = op_metrics(spans, counts)
    assert "lattice.chart_s" in missing  # no chart span in this op
    assert not {"plmap.narrowphase_s", "plmap.tri_tri_calls", "solver.lsqr_s"} & missing
    assert metrics["solver.project.self_s"] == pytest.approx(1.0)
    assert metrics["cli.run_pipeline.self_s"] == pytest.approx(2.0)
    assert metrics["plmap.narrowphase_s"] == pytest.approx(4.0)
    assert metrics["plmap.narrowphase_hit_ratio"] == pytest.approx(0.05)
    assert metrics["plmap.tri_tri_calls"] == 1
    assert metrics["trace.coverage"] == pytest.approx(0.7)


def test_run_spans_reindex_parents():
    tracer = Tracer()
    for _ in range(2):
        tracer.begin_run()
        with tracer.span("op"), tracer.span("cli.run_pipeline"):
            pass
    second = tracer.run_spans(1)
    assert [(s.name, s.parent) for s in second] == [("op", None), ("cli.run_pipeline", 0)]


def test_parse_report_types_values():
    report = parse_report(SOLVE_REPORT)
    assert report["facets"] == 9245 and isinstance(report["facets"], int)
    assert report["mu_c0"] == 0.020155683294452942
    assert report["spec"] == "product:figure8,figure8"
    with pytest.raises(ValueError):
        parse_report("no separator here\n")


def test_parse_study_rows_and_slopes():
    rows, slopes = parse_study(STUDY_CSV)
    assert [r["n"] for r in rows] == [8, 16, 32, 64]
    assert rows[3]["pl_c0"] == 0.0021941098227020515
    assert rows[0]["embedding"] == "skipped"
    assert slopes["pl_c1"] == -0.98397525018899434


def test_gate_accepts_captured_outputs(refs):
    assert check_op("embed-f8c-n12", 4, EMBED_REPORT, refs) == []
    assert check_op("solve-f8f8-n96", 0, SOLVE_REPORT, refs) == []
    assert check_op("study-f8c-small", 0, STUDY_CSV, refs) == []


@pytest.mark.parametrize(
    "name, code, text",
    [
        ("embed-f8c-n12", 0, EMBED_REPORT),
        ("embed-f8c-n12", 4, EMBED_REPORT.replace("embedding = fail", "embedding = pass")),
        ("embed-f8c-n12", 4, EMBED_REPORT.replace("facets = 146", "facets = 145")),
        ("embed-f8c-n12", 4, EMBED_REPORT.replace("1.6306400674181987e-16", "1e-3")),
        ("solve-f8f8-n96", 0, SOLVE_REPORT.replace("7.8825834748386114e-14", "2e-10")),
        ("solve-f8f8-n96", 0, SOLVE_REPORT.replace("0.020155683294452942", "0.02015578")),
        ("solve-f8f8-n96", 0, SOLVE_REPORT.replace("correction_c0 = ", "correction = ")),
        ("solve-f8f8-n96", None, ""),
        ("study-f8c-small", 0, STUDY_CSV.replace("-0.98397525018899434", "-1.4")),
        ("study-f8c-small", 0, STUDY_CSV.replace("0.0021941098227020515", "0.0021951")),
        ("study-f8c-small", 0, STUDY_CSV.replace("64,0.0226", "65,0.0226")),
    ],
)
def test_gate_rejects_tampered_output(refs, name, code, text):
    assert check_op(name, code, text, refs)


def test_trace_gate_compares_witness_pairs_and_distances(refs):
    traced = refs["workloads"]["embed-f8c-n12"]["traced"]
    pairs = [tuple(p) for p in traced["embedding_pairs"]]
    good = {"embedding_pairs": [pairs], "distance_c1": list(traced["distance_c1"])}
    assert check_trace("embed-f8c-n12", good, refs) == []
    assert check_trace("embed-f8c-n12", {"embedding_pairs": [pairs[:-1]]}, refs)
    assert check_trace("embed-f8c-n12", {}, refs)
    off = {"embedding_pairs": [pairs], "distance_c1": [traced["distance_c1"][0] * 1.001]}
    assert check_trace("embed-f8c-n12", off, refs)


def test_optional_kernel_spans_degrade_to_absent():
    import isomesh.cli
    import isomesh.solver

    modules = {
        "isomesh.cli": isomesh.cli,
        "isomesh.solver": isomesh.solver,
        "isomesh.plmap": types.ModuleType("isomesh.plmap"),  # private names gone
    }
    original = isomesh.cli.distance_c1
    tracer = Tracer()
    run_id = tracer.begin_run()
    with instrumented(tracer, modules), tracer.span("op"):
        assert isomesh.cli.distance_c1 is not original
        code = isomesh.cli.main(["verify", "--spec", "clifford", "--n", "4", "--embedding-check"])
    assert isomesh.cli.distance_c1 is original
    assert code == 0
    assert tracer.absent == {"plmap.broadphase", "plmap.tri_tri"}
    metrics, missing = op_metrics(tracer.run_spans(run_id), tracer.counts[run_id], tracer.absent)
    assert {"plmap.broadphase_s", "plmap.candidate_pairs", "plmap.tri_tri_calls"} <= missing
    assert "plmap.check_embedding_s" not in missing
    assert metrics["plmap.check_embedding_s"] > 0
    assert metrics["plmap.tri_tri_calls"] == 0


def test_workload_commands_pass_the_seed():
    assert WORKLOADS["certify-f8c-n96"].command(7)[-2:] == ["--seed", "7"]
