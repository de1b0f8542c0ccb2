"""In-memory span recorder and the instrumentation of isomesh's layers.

The tracer wraps the functions each layer exposes, at the names the calling
layer looks them up under (``isomesh.cli.distance_c1``, ``isomesh.solver.lsqr``,
the ``eval``/``jet`` of the spec ``isomesh.cli.spec_from_name`` returns, ...),
so nothing under ``src/`` is edited.  Every call records one span (name,
start, end, parent span, run id); counts are recorded at the same
boundaries.  Everything stays in memory until the benchmark writes it out.

A wrapped name that a later version no longer has (the private kernels of
``isomesh.plmap`` first of all) is skipped: the metrics measured from it are
reported as absent instead of failing the run.
"""

import contextlib
import functools
import math
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int


class Tracer:
    """Spans and counts of all ops of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.values = {}
        self.absent = set()
        self.run_id = -1
        self._stack = []

    def begin_run(self) -> int:
        self.run_id += 1
        self.counts[self.run_id] = Counter()
        self.values[self.run_id] = {}
        return self.run_id

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.run_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, name: str, amount=1):
        self.counts[self.run_id][name] += amount

    def maximum(self, name: str, value):
        counts = self.counts[self.run_id]
        counts[name] = max(counts.get(name, value), value)

    def record(self, name: str, value):
        self.values[self.run_id].setdefault(name, []).append(value)

    def run_spans(self, run_id: int) -> list:
        """The spans of one run, with ``parent`` re-indexed into the result."""
        index = [i for i, s in enumerate(self.spans) if s.run_id == run_id]
        position = {old: new for new, old in enumerate(index)}
        return [
            Span(s.name, s.start, s.end, position.get(s.parent), s.run_id)
            for s in (self.spans[i] for i in index)
        ]


def self_times(spans) -> list:
    """Duration of each span minus the part of it that its children cover.

    ``parent`` fields index into ``spans``.  Child intervals are merged
    before subtracting, so overlapping children are not counted twice.
    """
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    result = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for kid in sorted(kids, key=lambda k: spans[k].start):
            lo = max(spans[kid].start, reach)
            hi = min(spans[kid].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.end - span.start - covered)
    return result


# -- instrumentation ----------------------------------------------------------


def _points(p) -> int:
    shape = np.shape(p)
    return int(np.prod(shape[:-1])) if shape else 1


def _wrap(tracer, fn, name, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.count(f"{name}.failures")
                raise
            if after is not None:
                after(result, *args, **kwargs)
        return result

    return wrapper


def _wrap_weak_norm(tracer, fn):
    @functools.wraps(fn)
    def wrapper(f, kind, *args, **kwargs):
        with tracer.span("density.weak_norm"):
            if kind != "C0alpha_w":
                return fn(f, kind, *args, **kwargs)
            with tracer.span("density.holder"):
                return fn(f, kind, *args, **kwargs)

    return wrapper


def _resolve(root, dotted: str):
    """(owner, attribute) for ``a.b.c`` under ``root``, or None if missing."""
    *path, attr = dotted.split(".")
    owner = root
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


def _instrument_spec(tracer, spec):
    evaluate, jet = spec.eval, spec.jet
    spec.eval = _wrap(
        tracer, evaluate, "immersion.eval",
        lambda r, p: tracer.count("immersion.eval_points", _points(p)),
    )
    spec.jet = _wrap(
        tracer, jet, "immersion.jet",
        lambda r, p: tracer.count("immersion.jet_points", _points(p)),
    )
    return spec


def _patch_table(tracer):
    """(module name, dotted attribute, span name, after-call hook) entries."""

    def count(name, amount):
        return lambda result, *a, **k: tracer.count(name, amount(result))

    def record(name):
        return lambda result, *a, **k: tracer.record(name, result)

    def lsqr_after(result, *args, **kwargs):
        tracer.count("solver.lsqr_itn", int(result[2]))
        tracer.maximum("solver.lsqr_itn_max", int(result[2]))

    def embedding_after(result, *args, **kwargs):
        tracer.count("plmap.embedding_witnesses", len(result.witnesses))
        tracer.record("embedding_pairs", sorted((int(w[0]), int(w[1])) for w in result.witnesses))

    return (
        ("isomesh.cli", "run_pipeline", "cli.run_pipeline", None),
        ("isomesh.cli", "spec_from_name", "immersion.spec",
         lambda r, *a, **k: _instrument_spec(tracer, r)),
        ("isomesh.cli", "build_chart", "lattice.chart",
         count("lattice.facets", lambda chart: chart.vertex_count)),
        ("isomesh.cli", "sample_quad", "immersion.sample", None),
        ("isomesh.cli", "sample_tri", "immersion.sample", None),
        ("isomesh.cli", "symplectic_density", "density.symplectic_density", None),
        ("isomesh.cli", "weak_norm", "density.weak_norm", None),
        ("isomesh.cli", "facet_liouville", "density.facet_liouville", None),
        ("isomesh.cli", "project_isotropic", "solver.project",
         count("solver.gn_iterations", lambda r: r[1].iterations)),
        ("isomesh.solver", "symplectic_density", "density.symplectic_density",
         count("solver.line_search_evals", lambda r: 1)),
        ("isomesh.solver", "mu_jacobian", "solver.jacobian", None),
        ("isomesh.solver", "lsqr", "solver.lsqr", lsqr_after),
        ("isomesh.cli", "apex_refine", "refine.apex_refine", None),
        ("isomesh.cli", "barycentric_apexes", "refine.barycentric", None),
        ("isomesh.cli", "build_pl", "plmap.build_pl", None),
        ("isomesh.cli", "distance_c0", "plmap.distance_c0", record("distance_c0")),
        ("isomesh.cli", "distance_c1", "plmap.distance_c1", record("distance_c1")),
        ("isomesh.cli", "pl_isotropy_residual", "plmap.iso_residual", None),
        ("isomesh.cli", "check_immersion", "plmap.check_immersion",
         count("plmap.immersion_witnesses", lambda r: len(r.witnesses))),
        ("isomesh.cli", "check_embedding", "plmap.check_embedding", embedding_after),
        # Private kernels: expected to change name in later versions.
        ("isomesh.plmap", "_Bvh.close_pairs", "plmap.broadphase",
         count("plmap.candidate_pairs", len)),
        ("isomesh.plmap", "_tri_tri_distance", "plmap.tri_tri", None),
    )


@contextlib.contextmanager
def instrumented(tracer: Tracer, modules: dict):
    """Patch the layer functions for the duration of the block, then restore.

    ``modules`` maps module names (``isomesh.cli``, ...) to the imported
    modules.  A name that a later version no longer has is left alone and its
    span name is added to ``tracer.absent``, so the metrics measured from it
    are reported as absent instead of failing the run.
    """
    saved = []
    try:
        for module, dotted, span, after in _patch_table(tracer):
            target = _resolve(modules[module], dotted)
            if target is None:
                tracer.absent.add(span)
                continue
            owner, attr = target
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            if span == "density.weak_norm":
                setattr(owner, attr, _wrap_weak_norm(tracer, original))
            else:
                setattr(owner, attr, _wrap(tracer, original, span, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-op layer metrics -----------------------------------------------------

_CLI = ("cli.run_pipeline",)
_PROJECT = ("solver.project",)
_EMBEDDING = ("plmap.check_embedding",)
_BROADPHASE = ("plmap.check_embedding", "plmap.broadphase")

#: Per-layer metric -> (unit, better, spans it is measured from).  A metric
#: is absent from an op in which the first of its spans never opened, or
#: whose wrapped function the program no longer has.  Report order.
LAYER_METRICS = {
    "cli.run_pipeline_calls": ("count", "lower", _CLI),
    "cli.run_pipeline.self_s": ("s", "lower", _CLI),
    "lattice.chart_s": ("s", "lower", ("lattice.chart",)),
    "lattice.facets": ("count", "lower", ("lattice.chart",)),
    "immersion.sample_s": ("s", "lower", ("immersion.sample",)),
    "immersion.eval_s": ("s", "lower", ("immersion.eval",)),
    "immersion.eval_points": ("count", "lower", ("immersion.eval",)),
    "immersion.jet_s": ("s", "lower", ("immersion.jet",)),
    "immersion.jet_points": ("count", "lower", ("immersion.jet",)),
    "density.weak_norm_s": ("s", "lower", ("density.weak_norm",)),
    "density.holder_s": ("s", "lower", ("density.weak_norm",)),
    "density.symplectic_density_s": ("s", "lower", ("density.symplectic_density",)),
    "density.symplectic_density_calls": ("count", "lower", ("density.symplectic_density",)),
    "density.facet_liouville_s": ("s", "lower", ("density.facet_liouville",)),
    "solver.project_s": ("s", "lower", _PROJECT),
    "solver.project.self_s": ("s", "lower", _PROJECT),
    "solver.jacobian_s": ("s", "lower", (*_PROJECT, "solver.jacobian")),
    "solver.jacobian_calls": ("count", "lower", (*_PROJECT, "solver.jacobian")),
    "solver.lsqr_s": ("s", "lower", (*_PROJECT, "solver.lsqr")),
    "solver.lsqr_calls": ("count", "lower", (*_PROJECT, "solver.lsqr")),
    "solver.lsqr_itn": ("count", "lower", (*_PROJECT, "solver.lsqr")),
    "solver.lsqr_itn_max": ("count", "lower", (*_PROJECT, "solver.lsqr")),
    "solver.gn_iterations": ("count", "lower", _PROJECT),
    "solver.line_search_evals": ("count", "lower", (*_PROJECT, "density.symplectic_density")),
    "solver.failures": ("count", "lower", _PROJECT),
    "refine.apex_refine_s": ("s", "lower", ("refine.apex_refine",)),
    "refine.barycentric_s": ("s", "lower", ("refine.barycentric",)),
    "refine.failures": ("count", "lower", ("refine.apex_refine",)),
    "plmap.build_pl_s": ("s", "lower", ("plmap.build_pl",)),
    "plmap.build_pl_calls": ("count", "lower", ("plmap.build_pl",)),
    "plmap.distance_c0_s": ("s", "lower", ("plmap.distance_c0",)),
    "plmap.distance_c0_calls": ("count", "lower", ("plmap.distance_c0",)),
    "plmap.distance_c1_s": ("s", "lower", ("plmap.distance_c1",)),
    "plmap.iso_residual_s": ("s", "lower", ("plmap.iso_residual",)),
    "plmap.check_immersion_s": ("s", "lower", ("plmap.check_immersion",)),
    "plmap.immersion_witnesses": ("count", "lower", ("plmap.check_immersion",)),
    "plmap.check_embedding_s": ("s", "lower", _EMBEDDING),
    "plmap.embedding_witnesses": ("count", "lower", _EMBEDDING),
    "plmap.broadphase_s": ("s", "lower", _BROADPHASE),
    "plmap.candidate_pairs": ("count", "lower", _BROADPHASE),
    "plmap.narrowphase_s": ("s", "lower", _BROADPHASE),
    "plmap.tri_tri_s": ("s", "lower", (*_EMBEDDING, "plmap.tri_tri")),
    "plmap.tri_tri_calls": ("count", "lower", (*_EMBEDDING, "plmap.tri_tri")),
    "plmap.narrowphase_hit_ratio": ("fraction", "higher", _BROADPHASE),
    "proc.cpu_s": ("s", "lower", ()),
    "proc.cpu_per_wall": ("ratio", "lower", ()),
    "trace.run_s": ("s", "lower", ()),
    "trace.overhead_s": ("s", "lower", ()),
    "trace.coverage": ("fraction", "higher", ()),
}

_TIMED = {
    "lattice.chart_s": "lattice.chart",
    "immersion.sample_s": "immersion.sample",
    "immersion.eval_s": "immersion.eval",
    "immersion.jet_s": "immersion.jet",
    "density.weak_norm_s": "density.weak_norm",
    "density.holder_s": "density.holder",
    "density.symplectic_density_s": "density.symplectic_density",
    "density.facet_liouville_s": "density.facet_liouville",
    "solver.project_s": "solver.project",
    "solver.jacobian_s": "solver.jacobian",
    "solver.lsqr_s": "solver.lsqr",
    "refine.apex_refine_s": "refine.apex_refine",
    "refine.barycentric_s": "refine.barycentric",
    "plmap.build_pl_s": "plmap.build_pl",
    "plmap.distance_c0_s": "plmap.distance_c0",
    "plmap.distance_c1_s": "plmap.distance_c1",
    "plmap.iso_residual_s": "plmap.iso_residual",
    "plmap.check_immersion_s": "plmap.check_immersion",
    "plmap.check_embedding_s": "plmap.check_embedding",
    "plmap.broadphase_s": "plmap.broadphase",
    "plmap.tri_tri_s": "plmap.tri_tri",
}
_CALLS = {
    "cli.run_pipeline_calls": "cli.run_pipeline",
    "density.symplectic_density_calls": "density.symplectic_density",
    "solver.jacobian_calls": "solver.jacobian",
    "solver.lsqr_calls": "solver.lsqr",
    "plmap.build_pl_calls": "plmap.build_pl",
    "plmap.distance_c0_calls": "plmap.distance_c0",
    "plmap.tri_tri_calls": "plmap.tri_tri",
}
_COUNTED = (
    "lattice.facets",
    "immersion.eval_points",
    "immersion.jet_points",
    "solver.lsqr_itn",
    "solver.lsqr_itn_max",
    "solver.gn_iterations",
    "solver.line_search_evals",
    "plmap.immersion_witnesses",
    "plmap.embedding_witnesses",
    "plmap.candidate_pairs",
)
#: Spans of the orchestrating layer; the first span below them is a layer's.
_ORCHESTRATION = ("op", "cli.run_pipeline")


def op_metrics(spans, counts, absent=()) -> tuple[dict, set]:
    """Per-layer metrics of one op from its spans and counts.

    ``spans`` is one op's span list with ``parent`` indexing into it and the
    op's root span named ``op`` first; ``absent`` holds the span names whose
    function was missing.  Returns the metrics and the set of metric names
    without a measurement in this op, which read 0.
    """
    selfs = self_times(spans)
    total = Counter()
    calls = Counter()
    own = Counter()
    for span, self_s in zip(spans, selfs):
        total[span.name] += span.end - span.start
        calls[span.name] += 1
        own[span.name] += self_s
    metrics = {name: total[span] for name, span in _TIMED.items()}
    metrics.update({name: calls[span] for name, span in _CALLS.items()})
    metrics.update({name: counts.get(name, 0) for name in _COUNTED})
    metrics["cli.run_pipeline.self_s"] = own["cli.run_pipeline"]
    metrics["solver.project.self_s"] = own["solver.project"]
    metrics["solver.failures"] = counts.get("solver.project.failures", 0)
    metrics["refine.failures"] = counts.get("refine.apex_refine.failures", 0)
    metrics["plmap.narrowphase_s"] = total["plmap.check_embedding"] - total["plmap.broadphase"]
    pairs = counts.get("plmap.candidate_pairs", 0)
    metrics["plmap.narrowphase_hit_ratio"] = (
        counts.get("plmap.embedding_witnesses", 0) / pairs if pairs else 0.0
    )
    root = spans[0]
    wall = root.end - root.start
    metrics["trace.run_s"] = wall
    metrics["trace.coverage"] = layer_coverage(spans) / wall

    missing = {
        name
        for name, (_, _, needs) in LAYER_METRICS.items()
        if needs and (not calls[needs[0]] or any(s in absent for s in needs))
    }
    for name in missing:
        metrics[name] = 0
    return metrics, missing


def layer_coverage(spans) -> float:
    """Seconds covered by the outermost spans of the non-orchestrating layers."""
    outermost = 0.0
    for span in spans:
        if span.name in _ORCHESTRATION:
            continue
        parent = span.parent
        if parent is None or spans[parent].name in _ORCHESTRATION:
            outermost += span.end - span.start
    return outermost
