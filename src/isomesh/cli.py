"""Pipeline orchestration, configuration, convergence studies, reports.

The pipeline is sample -> project to the isotropic meshes -> optimal-apex
refinement -> PL map -> certification (isotropy, immersion, optionally
embedding) -> export.  Stages run on first use, so a report key pulls in
only the stages it needs.  A convergence study runs the pipeline over a list
of subdivisions and fits log-log slopes for every norm column.

A run is configured in one place, ``PipelineConfig``: each field declares
one key with its default, text parser and help line, and the key=value
config file ([section] headers ignored) and one command line flag per key
derive from the fields.  Fixed numeric policy is module constants, not keys: the chart's reference
isometry ``DEFAULT_ROTATION`` and the topology tolerance
``plmap.TOPOLOGY_TOL``.  Reports are deterministic: identical config and
seed produce byte-identical output (wall-clock timings are emitted only
when explicitly enabled).
"""

import argparse
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import cache, cached_property, wraps

import numpy as np

from .density import facet_liouville, symplectic_density, weak_norm
from .immersion import sample_quad, sample_tri, spec_from_name
from .lattice import DegenerateLattice, build_chart, rotation
from .plmap import (
    TOPOLOGY_TOL,
    build_pl,
    check_embedding,
    check_immersion,
    distance_c0,
    distance_c1,
    export_mesh,
    pl_isotropy_residual,
)
from .refine import NotIsotropic, apex_refine, barycentric_apexes, isotropy_limit
from .solver import LinearSolveFailure, MaxIterExceeded, project_isotropic

#: Reference isometry angle of every chart.  A generic rotation keeps the
#: sample grid out of the axis-aligned symmetries of product parametrizations
#: (axis-aligned sampling of product tori is exactly isotropic facet by facet,
#: which collapses the density and the projection step to zero).
DEFAULT_ROTATION = math.atan2(1.0, 2.0)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CERTIFICATION = 4

#: Errors a stage raises on valid input, an N too large to allocate among them:
#: EXIT_SOLVER from main, a failed row in a study.
_PIPELINE_ERRORS = (MaxIterExceeded, LinearSolveFailure, NotIsotropic, DegenerateLattice,
                    MemoryError)


def _error_name(exc) -> str:
    """A pipeline error's first public class name: numpy refuses an
    allocation with a private subclass of MemoryError."""
    return next(c.__name__ for c in type(exc).__mro__ if not c.__name__.startswith("_"))


class ConfigError(ValueError):
    """Malformed configuration."""


class NonPositiveValue(ValueError):
    """Slope fit received a value that is not finite and positive."""


_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL_VALUES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected one of {', '.join(_BOOL_VALUES)}") from None


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _key(default, parse, doc: str):
    """A config key: its default, the parser of its text (file line or flag), its help."""
    return field(default=default, metadata={"parse": parse, "help": doc})


@dataclass
class PipelineConfig:
    spec: str = _key("clifford", str, "built-in map: clifford | clifford:r1,r2 | "
                     "product:c1,c2 | flat-plane; curves: circle, figure8")
    n: int = _key(16, int, "subdivision count")
    embedding_check: bool = _key(False, _parse_bool, "certify embedding: the immersion "
                                 "verdict plus the broadphase pairs that share no vertex id")
    seed: int = _key(0, int, "seed for sampled-pair norms")
    out: str | None = _key(None, str, "output path: mesh or table")
    projection: tuple[int, int, int] | None = _key(
        None, _parse_ints, "3 coordinate indices for .obj export")
    n_list: tuple[int, ...] = _key((8, 16, 32, 64), _parse_ints, "study subdivisions")
    timings: bool = _key(False, _parse_bool, "append wall-time columns to studies")

    def validate(self):
        if self.projection is not None and len(self.projection) != 3:
            raise ConfigError("projection must be 3 comma-separated coordinate indices")
        if self.n < 1:
            raise ConfigError("n must be a positive integer")
        if any(n < 1 for n in self.n_list):
            raise ConfigError("n_list entries must be positive integers")
        if len(self.n_list) < 3 or any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ConfigError("n_list needs at least 3 strictly increasing entries")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        return self


def parse_config_file(path: str) -> dict:
    """Read key=value pairs; blank lines, # comments and [sections] ignored."""
    raw = {}
    try:
        with open(path) as handle:
            for lineno, line in enumerate(handle, 1):
                text = line.strip()
                if not text or text.startswith("#") or text.startswith("["):
                    continue
                if "=" not in text:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, value = text.split("=", 1)
                raw[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return raw


def load_config(path: str | None = None, overrides: dict | None = None) -> PipelineConfig:
    """File ``path``, then ``overrides`` but None; text goes through its key's parser."""
    raw = parse_config_file(path) if path else {}
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    keys = {key.name: key for key in fields(PipelineConfig)}
    values = {}
    for name, text in raw.items():
        if name not in keys:
            raise ConfigError(f"unknown config key {name!r}")
        try:
            values[name] = text if not isinstance(text, str) else keys[name].metadata["parse"](text)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {name}: {text!r} ({exc})") from exc
    return PipelineConfig(**values).validate()


def _stage(name: str):
    """Cached Pipeline attribute whose own work counts to stage ``name``."""

    def decorate(method):
        return cached_property(wraps(method)(lambda self: self.timed(name, method)))

    return decorate


class Pipeline:
    """The pipeline at one subdivision; each stage runs on first use, at most once.

    ``report`` holds the keys evaluated so far.  ``stage_seconds`` holds the
    wall time of each stage's own work, without the stages it pulled in.
    """

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg.validate()
        try:
            self.spec = spec_from_name(cfg.spec)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        dim = 2 * self.spec.dim_n
        if cfg.projection is not None and not all(0 <= i < dim for i in cfg.projection):
            raise ConfigError(
                f"projection indices must lie in 0..{dim - 1} for spec {self.spec.name!r}"
            )
        self.report = {}
        self.stage_seconds = {}
        self._nested = []  # seconds of the stages run inside each open stage

    def timed(self, stage: str, compute):
        """``compute(self)``; its time less that of nested stages counts to ``stage``."""
        self._nested.append(0.0)
        t0 = time.perf_counter()
        value = compute(self)
        elapsed = time.perf_counter() - t0
        own = elapsed - self._nested.pop()
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + own
        if self._nested:
            self._nested[-1] += elapsed
        return value

    @_stage("sample")
    def chart(self):
        return build_chart(self.spec.gamma_basis, rotation(DEFAULT_ROTATION), self.cfg.n)

    @_stage("sample")
    def tau(self):
        return sample_quad(self.spec, self.chart)

    @_stage("sample")
    def tau_tri(self):
        return sample_tri(self.spec, self.chart)

    @_stage("sample")
    def mu(self):
        return symplectic_density(self.tau)

    @_stage("solve")
    def solved(self):
        return project_isotropic(self.tau)

    rho = property(lambda self: self.solved[0])
    solve_report = property(lambda self: self.solved[1])

    @_stage("refine")
    def tri(self):
        return apex_refine(self.rho)

    @_stage("build")
    def plm(self):
        return build_pl(self.tri)

    @_stage("verify")
    def iso_certificate(self):
        """(max per-triangle isotropy residual, edge scale, passed) of the PL map."""
        residual, scale = float(pl_isotropy_residual(self.plm).max()), self.plm.edge_scale()
        return residual, scale, residual <= isotropy_limit(scale)

    @_stage("verify")
    def immersion_check(self):
        return check_immersion(self.plm)

    @_stage("verify")
    def embedding_check(self):
        """The embedding verdict, or None unless ``embedding_check`` is set;
        it adds the far pairs to the immersion verdict memoized on the map."""
        if self.cfg.embedding_check:
            return check_embedding(self.plm)
        return None


def _verdict(passed) -> str:
    return "pass" if passed else "fail"


def _sup(offsets) -> float:
    return float(np.linalg.norm(offsets, axis=1).max())


def _tri_c0(a, b) -> float:
    return max(_sup(a.corner_values - b.corner_values), _sup(a.apex_values - b.apex_values))


#: Report keys in output order -> (stage the key's own work counts to, its
#: value computed from a Pipeline).  A key pulls in only the stages it reads.
_REPORT_FIELDS = {
    "spec": ("sample", lambda p: p.spec.name),
    "n": ("sample", lambda p: p.cfg.n),
    "facets": ("sample", lambda p: p.chart.vertex_count),
    "mu_c0": ("sample", lambda p: weak_norm(p.mu, "C0")),
    "mu_c1w": ("sample", lambda p: weak_norm(p.mu, "C1_w")),
    "mu_holder": ("sample", lambda p: weak_norm(p.mu, "C0alpha_w", seed=p.cfg.seed)),
    "liouville_max": ("sample", lambda p: float(np.abs(facet_liouville(p.tau).values).max())),
    "solve_iterations": ("solve", lambda p: p.solve_report.iterations),
    "solve_residual_c0": ("solve", lambda p: p.solve_report.residual_c0),
    "correction_c0": ("solve", lambda p: p.solve_report.correction_c0),
    "apex_offset_max": (
        "refine", lambda p: _sup(p.tri.apex_values - barycentric_apexes(p.rho).apex_values)
    ),
    "tri_c0": ("refine", lambda p: _tri_c0(p.tri, p.tau_tri)),
    "pl_c0": ("build", lambda p: distance_c0(p.plm, p.spec)),
    "pl_c1": ("build", lambda p: distance_c1(p.plm, p.spec)),
    "interp_c0": ("build", lambda p: distance_c0(build_pl(p.tau_tri), p.spec)),
    "iso_residual_max": ("verify", lambda p: p.iso_certificate[0]),
    "iso_scale": ("verify", lambda p: p.iso_certificate[1]),
    "isotropy": ("verify", lambda p: _verdict(p.iso_certificate[2])),
    "immersion": ("verify", lambda p: _verdict(p.immersion_check.passed)),
    "embedding": (
        "verify",
        lambda p: "skipped" if p.embedding_check is None else _verdict(p.embedding_check.passed),
    ),
}


def run_pipeline(cfg: PipelineConfig, keys=None) -> Pipeline:
    """Evaluate ``keys`` of the report (all when None) at subdivision ``cfg.n``.

    Keys are evaluated in report order and run only the stages they need;
    the returned Pipeline runs any other stage on first use.  Raises
    ConfigError for malformed input; solver and refinement errors propagate
    from the stage that raises them.
    """
    run = Pipeline(cfg)
    for key, (stage, value) in _REPORT_FIELDS.items():
        if keys is None or key in keys:
            run.report[key] = run.timed(stage, value)
    return run


def _text(value) -> str:
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def format_report(report: dict) -> str:
    return "".join(f"{key} = {_text(value)}\n" for key, value in report.items())


def fit_slope(pairs, floor: float = 0.0) -> float:
    """Least-squares slope of log(value) against log(N).

    Raises NonPositiveValue when any value is not finite and above ``floor``
    (zero, negative, NaN or inf: the log is undefined or infinite).
    """
    pairs = list(pairs)
    if len(pairs) < 2:
        raise ValueError("need at least 2 pairs")
    ns = np.array([float(n) for n, _ in pairs])
    vs = np.array([float(v) for _, v in pairs])
    if not np.all((vs > floor) & (vs < np.inf)):
        raise NonPositiveValue("slope fit needs finite positive values")
    x = np.log(ns)
    y = np.log(vs)
    x = x - x.mean()
    return float((x * (y - y.mean())).sum() / (x * x).sum())


@dataclass
class StudyRow:
    n: int
    report: dict = field(default_factory=dict)
    wall_times: dict = field(default_factory=dict)
    error: str | None = None
    scale: float = 0.0  # the map's scale: the largest sample coordinate


#: Study values at most this times the map's scale are rounding noise, with
#: no slope: above flat-plane's exact 3.3e-13 at N = 32, below real errors.
_ROUNDING_LEVEL = 2.0**20 * np.finfo(float).eps


_STUDY_COLUMNS = ("mu_c0", "mu_c1w", "mu_holder", "correction_c0", "tri_c0", "pl_c0", "pl_c1")
_STUDY_KEYS = (*_STUDY_COLUMNS, "immersion", "embedding")
_STAGES = ("sample", "solve", "refine", "build", "verify")


@dataclass
class StudyResult:
    rows: list
    slopes: dict
    table: str


def convergence_study(cfg: PipelineConfig) -> StudyResult:
    """Run the pipeline per N of ``cfg.n_list``, fit log-log slopes, emit a CSV table.

    Slope lines are appended as a ``#``-prefixed summary block; a column
    with a value at rounding level (``_ROUNDING_LEVEL``) gets an NA slope, and
    per-N failures produce NA rows with a failure marker comment.
    """
    cfg.validate()
    rows = []
    for n in cfg.n_list:
        try:
            res = run_pipeline(replace(cfg, n=n), keys=_STUDY_KEYS)
            scale = float(np.abs(res.tau.values).max())
            rows.append(StudyRow(n, res.report, res.stage_seconds, scale=scale))
        except _PIPELINE_ERRORS as exc:
            rows.append(StudyRow(n=n, error=f"{_error_name(exc)}: {exc}"))
    slopes = {}
    floor = _ROUNDING_LEVEL * max(r.scale for r in rows)
    for col in _STUDY_COLUMNS:
        try:
            slopes[col] = fit_slope([(r.n, r.report[col]) for r in rows if r.error is None], floor)
        except ValueError:
            slopes[col] = None
    header = ["n", *_STUDY_KEYS]
    if cfg.timings:
        header += [f"t_{stage}" for stage in _STAGES]
    lines = [",".join(header)]
    for row in rows:
        if row.error is not None:
            cells = [str(row.n)] + ["NA"] * len(_STUDY_KEYS)
            if cfg.timings:
                cells += ["NA"] * len(_STAGES)
            lines.append(",".join(cells))
            lines.append(f"# n={row.n} failed: {row.error}")
            continue
        cells = [str(row.n), *(_text(row.report[key]) for key in _STUDY_KEYS)]
        if cfg.timings:
            cells += [f"{row.wall_times[stage]:.3f}" for stage in _STAGES]
        lines.append(",".join(cells))
    for col in _STUDY_COLUMNS:
        value = slopes[col]
        text = "NA" if value is None else f"{value:.17g}"
        lines.append(f"# slope {col} = {text}")
    table = "\n".join(lines) + "\n"
    return StudyResult(rows=rows, slopes=slopes, table=table)


# -- command line -------------------------------------------------------------

_CONFIG_HELP = f"""\
--config reads one key = value per line, keyed as the flags above with
underscores (n_list = 8,16,32); # comments and [section] headers are ignored.
Subcommands run only the stages their printed keys need, and exit 3 only
from those; with out, every stage runs, as the full report is written there.
fixed, not keys: the chart rotation atan(1/2) and the immersion/embedding
tolerance {TOPOLOGY_TOL:g} times the longest image edge
"""

#: Command -> (description, the report keys it prints; None prints the full report).
_COMMANDS = {
    "sample": ("sample the map and report density norms",
               ("spec", "n", "facets", "mu_c0", "mu_c1w", "mu_holder", "liouville_max")),
    "solve": ("project the samples onto the isotropic meshes", ("spec", "n", "facets", "mu_c0",
              "solve_iterations", "solve_residual_c0", "correction_c0")),
    "refine": ("solve and refine with optimal apexes",
               ("spec", "n", "facets", "solve_iterations", "apex_offset_max", "tri_c0")),
    "build": ("build the PL map and report distances",
              ("spec", "n", "facets", "tri_c0", "pl_c0", "pl_c1", "interp_c0")),
    "verify": ("certify isotropy, immersion and optionally embedding", ("spec", "n", "facets",
               "iso_residual_max", "iso_scale", "isotropy", "immersion", "embedding")),
    "export": ("run the pipeline and export the mesh (--out required)", None),
    "study": ("convergence study over n_list with fitted slopes", None),
}


def _shown(value) -> str:
    """A default value as a config file spells it."""
    text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
    return text.lower() if value is None or isinstance(value, bool) else text


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line: one flag per ``PipelineConfig`` field, whose text
    ``load_config`` parses as it parses a file line."""
    commands = "".join(f"  {name:<8}{doc}\n" for name, (doc, _) in _COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="isomesh",
        description="Piecewise linear isotropic torus approximation pipeline.\n\n"
        f"commands:\n{commands}",
        epilog=_CONFIG_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command", help="one of the above")
    parser.add_argument("--config", help="configuration file path")
    for key in fields(PipelineConfig):
        # A boolean flag takes no value: it sets its key to "true".
        switch = {"action": "store_const", "const": "true"} if key.type is bool else {}
        parser.add_argument(
            f"--{key.name.replace('_', '-')}",
            help=f"{key.metadata['help']} ({_shown(key.default)})",
            **switch,
        )
    return parser


@contextmanager
def _writing(path):
    """Report an OSError raised while writing ``path`` as a ConfigError."""
    try:
        yield
    except OSError as exc:
        target = exc.filename or path
        raise ConfigError(f"cannot write {target}: {exc.strerror or exc}") from exc


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        flags = {key.name: getattr(args, key.name) for key in fields(PipelineConfig)}
        cfg = load_config(args.config, flags)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        # Probe every output path before any stage runs; drop files the probe creates.
        outputs = [cfg.out] if cfg.out else []
        if outputs and args.command == "export":
            outputs += [f"{cfg.out}.report"] + [f"{cfg.out}.obj"] * (cfg.projection is not None)
        for path in outputs:
            existed = os.path.lexists(path)
            with _writing(path), open(path, "a"):
                pass
            if not existed:
                os.remove(path)

        if args.command == "study":
            result = convergence_study(cfg)
            if cfg.out:
                with _writing(cfg.out), open(cfg.out, "w") as handle:
                    handle.write(result.table)
            else:
                sys.stdout.write(result.table)
            return EXIT_OK

        if args.command == "export" and not cfg.out:
            print("config error: export needs --out", file=sys.stderr)
            return EXIT_CONFIG

        # A subcommand prints its keys; export prints, and --out writes, the full report.
        keys = _COMMANDS[args.command][1]
        res = run_pipeline(cfg, keys=None if cfg.out else keys)
        printed = res.report if keys is None else {k: res.report[k] for k in keys}
        sys.stdout.write(format_report(printed))

        if args.command == "export":
            with _writing(cfg.out):
                export_mesh(res.plm, cfg.out, projection=cfg.projection)
        if cfg.out:
            path = f"{cfg.out}.report" if args.command == "export" else cfg.out
            with _writing(path), open(path, "w") as handle:
                handle.write(format_report(res.report))

        # An embedding check that did not run reports "skipped", not "fail".
        verdicts = ("isotropy", "immersion", "embedding")
        if args.command == "verify" and "fail" in (res.report[k] for k in verdicts):
            return EXIT_CERTIFICATION
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _PIPELINE_ERRORS as exc:
        print(f"pipeline error [{_error_name(exc)}]: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
