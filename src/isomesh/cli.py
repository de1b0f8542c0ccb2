"""Pipeline orchestration, configuration, convergence studies, reports.

The pipeline is sample -> project to the isotropic meshes -> optimal-apex
refinement -> PL map -> certification (isotropy, immersion, optionally
embedding) -> export.  A convergence study runs the pipeline over a list of
subdivisions and fits log-log slopes for every norm column.

Configuration is a flat key=value text file ([section] headers are allowed
and ignored); every key can also be set programmatically and the common ones
overridden by command line flags.  Reports are deterministic: identical
config and seed produce byte-identical output (wall-clock timings are
emitted only when explicitly enabled).
"""

import argparse
import math
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .density import facet_liouville, symplectic_density, weak_norm
from .immersion import sample_quad, sample_tri, spec_from_name
from .lattice import DegenerateLattice, build_chart, rotation
from .plmap import (
    build_pl,
    check_embedding,
    check_immersion,
    distance_c0,
    distance_c1,
    export_mesh,
    pl_isotropy_residual,
)
from .refine import NotIsotropic, apex_refine, barycentric_apexes
from .solver import LinearSolveFailure, MaxIterExceeded, project_isotropic

#: Reference isometry angle used by default.  A generic rotation keeps the
#: sample grid out of the axis-aligned symmetries of product parametrizations
#: (axis-aligned sampling of product tori is exactly isotropic facet by facet,
#: which collapses the density and the projection step to zero).
DEFAULT_ROTATION = math.atan2(1.0, 2.0)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CERTIFICATION = 4

#: Per-triangle isotropy certificate: |omega pullback| <= this times scale^2.
ISO_CERT_FACTOR = 1e-9


class ConfigError(ValueError):
    """Malformed configuration."""


class NonPositiveValue(ValueError):
    """Slope fit received a value <= 0."""


@dataclass
class PipelineConfig:
    spec: str = "clifford"
    n: int = 16
    rotation: float = DEFAULT_ROTATION
    gamma: tuple[float, float, float, float] | None = None
    tol: float = 1e-10
    max_iter: int = 50
    max_halvings: int = 10
    iso_tol: float | None = None
    oversample: int = 4
    alpha: float = 0.5
    check_tol: float = 1e-6
    embedding_check: bool = False
    seed: int = 0
    out: str | None = None
    projection: tuple[int, int, int] | None = None
    n_list: tuple[int, ...] = (8, 16, 32, 64)
    timings: bool = False

    def validate(self):
        for key in ("tol", "check_tol", "iso_tol", "rotation"):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
        if self.n < 1:
            raise ConfigError("n must be a positive integer")
        if self.max_iter < 0:
            raise ConfigError("max_iter must be nonnegative")
        if self.max_halvings < 0:
            raise ConfigError("max_halvings must be nonnegative")
        if self.oversample < 1:
            raise ConfigError("oversample must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        if self.check_tol <= 0:
            raise ConfigError("check_tol must be positive")
        if self.iso_tol is not None and self.iso_tol <= 0:
            raise ConfigError("iso_tol must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        return self


_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL_VALUES[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"expected a boolean, got {text!r}") from None


_CONFIG_PARSERS = {
    "spec": str,
    "n": int,
    "rotation": float,
    "gamma": lambda s: tuple(float(x) for x in s.split(",")),
    "tol": float,
    "max_iter": int,
    "max_halvings": int,
    "iso_tol": float,
    "oversample": int,
    "alpha": float,
    "check_tol": float,
    "embedding_check": _parse_bool,
    "seed": int,
    "out": str,
    "projection": lambda s: tuple(int(x) for x in s.split(",")),
    "n_list": lambda s: tuple(int(x) for x in s.split(",")),
    "timings": _parse_bool,
}


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
    raw = parse_config_file(path) if path else {}
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    cfg = PipelineConfig()
    for key, text in raw.items():
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            value = text if not isinstance(text, str) else _CONFIG_PARSERS[key](text)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {text!r} ({exc})") from exc
        cfg = replace(cfg, **{key: value})
    if cfg.gamma is not None and len(cfg.gamma) != 4:
        raise ConfigError("gamma must be 4 comma-separated floats b11,b21,b12,b22")
    if cfg.projection is not None and len(cfg.projection) != 3:
        raise ConfigError("projection must be 3 comma-separated coordinate indices")
    return cfg.validate()


def check_spec_config(cfg: PipelineConfig, spec) -> None:
    """Raise ConfigError for keys that contradict the spec (gamma, projection)."""
    if cfg.gamma is not None:
        basis = np.array(cfg.gamma, dtype=float).reshape(2, 2, order="F")
        if not np.allclose(basis, spec.gamma_basis, atol=1e-12):
            raise ConfigError(
                f"gamma {','.join(f'{x:g}' for x in cfg.gamma)} differs from the "
                f"period basis of spec {spec.name!r}"
            )
    dim = 2 * spec.dim_n
    if cfg.projection is not None and not all(0 <= i < dim for i in cfg.projection):
        raise ConfigError(f"projection indices must lie in 0..{dim - 1} for spec {spec.name!r}")


def chart_for(cfg: PipelineConfig, spec, n: int | None = None):
    basis = spec.gamma_basis
    if cfg.gamma is not None:
        basis = np.array(cfg.gamma, dtype=float).reshape(2, 2, order="F")
    return build_chart(basis, rotation(cfg.rotation), n if n is not None else cfg.n)


@dataclass
class PipelineResult:
    chart: object
    spec: object
    tau: object
    rho: object
    solve_report: object
    tri: object
    plm: object
    report: dict
    stage_seconds: dict = field(default_factory=dict)
    immersion_check: object = None
    embedding_check: object = None


def run_pipeline(cfg: PipelineConfig, n: int | None = None) -> PipelineResult:
    """Run the full pipeline at one subdivision and collect a report.

    Raises ConfigError for malformed input; solver and refinement errors
    propagate with their stage recorded in the message.
    """
    cfg.validate()
    n = cfg.n if n is None else n
    times = {}
    try:
        spec = spec_from_name(cfg.spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    check_spec_config(cfg, spec)

    t0 = time.perf_counter()
    chart = chart_for(cfg, spec, n)
    tau = sample_quad(spec, chart)
    tau_tri = sample_tri(spec, chart)
    mu = symplectic_density(tau)
    mu_c0 = weak_norm(mu, "C0")
    mu_c1w = weak_norm(mu, "C1_w")
    mu_holder = weak_norm(mu, "C0alpha_w", alpha=cfg.alpha, seed=cfg.seed)
    liou_max = float(np.abs(facet_liouville(tau).values).max())
    times["sample"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rho, solve_report = project_isotropic(
        tau, tol=cfg.tol, max_iter=cfg.max_iter, max_halvings=cfg.max_halvings
    )
    times["solve"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    iso_tol = cfg.iso_tol if cfg.iso_tol is not None else 10.0 * cfg.tol * n * n
    tri = apex_refine(rho, iso_tol=iso_tol)
    hat = barycentric_apexes(rho)
    apex_offset = float(
        np.linalg.norm(tri.apex_values - hat.apex_values, axis=1).max()
    )
    tri_c0 = max(
        float(np.linalg.norm(tri.corner_values - tau_tri.corner_values, axis=1).max()),
        float(np.linalg.norm(tri.apex_values - tau_tri.apex_values, axis=1).max()),
    )
    times["refine"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    plm = build_pl(tri)
    pl_c0 = distance_c0(plm, spec, oversample=cfg.oversample)
    pl_c1 = distance_c1(plm, spec, oversample=cfg.oversample)
    interp = build_pl(tau_tri)
    interp_c0 = distance_c0(interp, spec, oversample=cfg.oversample)
    times["build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    residuals = pl_isotropy_residual(plm)
    scale = plm.edge_scale()
    iso_pass = bool(residuals.max() <= ISO_CERT_FACTOR * scale * scale)
    immersion = check_immersion(plm, tol=cfg.check_tol)
    if cfg.embedding_check:
        embedding = check_embedding(plm, tol=cfg.check_tol)
        embedding_text = "pass" if embedding.passed else "fail"
    else:
        embedding = None
        embedding_text = "skipped"
    times["verify"] = time.perf_counter() - t0

    report = {
        "spec": spec.name,
        "n": n,
        "facets": chart.vertex_count,
        "mu_c0": mu_c0,
        "mu_c1w": mu_c1w,
        "mu_holder": mu_holder,
        "liouville_max": liou_max,
        "solve_iterations": solve_report.iterations,
        "solve_residual_c0": solve_report.residual_c0,
        "correction_c0": solve_report.correction_c0,
        "apex_offset_max": apex_offset,
        "tri_c0": tri_c0,
        "pl_c0": pl_c0,
        "pl_c1": pl_c1,
        "interp_c0": interp_c0,
        "iso_residual_max": float(residuals.max()),
        "iso_scale": scale,
        "isotropy": "pass" if iso_pass else "fail",
        "immersion": "pass" if immersion.passed else "fail",
        "embedding": embedding_text,
    }
    return PipelineResult(
        chart=chart,
        spec=spec,
        tau=tau,
        rho=rho,
        solve_report=solve_report,
        tri=tri,
        plm=plm,
        report=report,
        stage_seconds=times,
        immersion_check=immersion,
        embedding_check=embedding,
    )


def format_report(report: dict) -> str:
    lines = []
    for key, value in report.items():
        if isinstance(value, float):
            lines.append(f"{key} = {value:.17g}")
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def fit_slope(pairs) -> float:
    """Least-squares slope of log(value) against log(N).

    Raises NonPositiveValue when any value is <= 0 (the log is undefined).
    """
    pairs = list(pairs)
    if len(pairs) < 2:
        raise ValueError("need at least 2 pairs")
    ns = np.array([float(n) for n, _ in pairs])
    vs = np.array([float(v) for _, v in pairs])
    if np.any(vs <= 0.0):
        raise NonPositiveValue("slope fit needs positive values")
    x = np.log(ns)
    y = np.log(vs)
    x = x - x.mean()
    return float((x * (y - y.mean())).sum() / (x * x).sum())


@dataclass
class StudyRow:
    n: int
    mu_c0: float | None = None
    mu_c1w: float | None = None
    mu_holder: float | None = None
    correction_c0: float | None = None
    tri_c0: float | None = None
    pl_c0: float | None = None
    pl_c1: float | None = None
    immersion: str = "NA"
    embedding: str = "NA"
    wall_times: dict = field(default_factory=dict)
    error: str | None = None


_STUDY_COLUMNS = (
    "mu_c0",
    "mu_c1w",
    "mu_holder",
    "correction_c0",
    "tri_c0",
    "pl_c0",
    "pl_c1",
)
_STAGES = ("sample", "solve", "refine", "build", "verify")


@dataclass
class StudyResult:
    rows: list
    slopes: dict
    table: str


def convergence_study(cfg: PipelineConfig, n_list=None) -> StudyResult:
    """Run the pipeline per N, fit log-log slopes, emit a CSV table.

    Slope lines are appended as a ``#``-prefixed summary block; per-N
    failures produce NA rows with a failure marker comment.  Needs at least
    3 subdivisions.
    """
    n_list = tuple(cfg.n_list if n_list is None else n_list)
    if len(n_list) < 3:
        raise ConfigError("n_list needs at least 3 entries")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError("n_list must be strictly increasing")
    rows = []
    for n in n_list:
        try:
            res = run_pipeline(cfg, n=n)
            rep = res.report
            rows.append(
                StudyRow(
                    n=n,
                    mu_c0=rep["mu_c0"],
                    mu_c1w=rep["mu_c1w"],
                    mu_holder=rep["mu_holder"],
                    correction_c0=rep["correction_c0"],
                    tri_c0=rep["tri_c0"],
                    pl_c0=rep["pl_c0"],
                    pl_c1=rep["pl_c1"],
                    immersion=rep["immersion"],
                    embedding=rep["embedding"],
                    wall_times=res.stage_seconds,
                )
            )
        except (MaxIterExceeded, LinearSolveFailure, NotIsotropic, DegenerateLattice) as exc:
            rows.append(StudyRow(n=n, error=f"{type(exc).__name__}: {exc}"))
    slopes = {}
    for col in _STUDY_COLUMNS:
        pairs = [(r.n, getattr(r, col)) for r in rows if r.error is None]
        try:
            slopes[col] = fit_slope([(n, v) for n, v in pairs if v is not None])
        except (NonPositiveValue, ValueError):
            slopes[col] = None
    header = ["n", *_STUDY_COLUMNS, "immersion", "embedding"]
    if cfg.timings:
        header += [f"t_{stage}" for stage in _STAGES]
    lines = [",".join(header)]
    for row in rows:
        if row.error is not None:
            cells = [str(row.n)] + ["NA"] * len(_STUDY_COLUMNS) + ["NA", "NA"]
            if cfg.timings:
                cells += ["NA"] * len(_STAGES)
            lines.append(",".join(cells))
            lines.append(f"# n={row.n} failed: {row.error}")
            continue
        cells = [str(row.n)]
        cells += [f"{getattr(row, col):.17g}" for col in _STUDY_COLUMNS]
        cells += [row.immersion, row.embedding]
        if cfg.timings:
            cells += [f"{row.wall_times.get(stage, 0.0):.3f}" for stage in _STAGES]
        lines.append(",".join(cells))
    for col in _STUDY_COLUMNS:
        value = slopes[col]
        text = "NA" if value is None else f"{value:.17g}"
        lines.append(f"# slope {col} = {text}")
    table = "\n".join(lines) + "\n"
    return StudyResult(rows=rows, slopes=slopes, table=table)


# -- command line -------------------------------------------------------------

_CONFIG_HELP = """\
config file keys (key = value, one per line; defaults in parentheses):
  spec            built-in map: clifford | clifford:r1,r2 | product:c1,c2 |
                  flat-plane; curves: circle, figure8   (clifford)
  n               subdivision count                     (16)
  rotation        chart reference isometry angle, rad   (atan(1/2) ~ 0.46365)
  gamma           period basis b11,b21,b12,b22; must    (from spec)
                  equal the spec's basis
  tol             solver residual tolerance             (1e-10)
  max_iter        solver iteration budget               (50)
  max_halvings    solver step-halving budget            (10)
  iso_tol         refine isotropy precondition          (10 * tol * n^2)
  oversample      distance sample grid per triangle     (4)
  alpha           Hoelder exponent for weak norms       (0.5)
  check_tol       immersion/embedding tolerance         (1e-6)
  embedding_check run the all-pairs embedding test      (false)
  seed            seed for sampled-pair norms           (0)
  out             output path (mesh or table)           (none)
  projection      3 coordinate indices for .obj export  (none)
  n_list          study subdivisions, comma separated   (8,16,32,64)
  timings         append wall-time columns to studies   (false)
"""


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="configuration file path")
    parser.add_argument("--spec", help="built-in spec name")
    parser.add_argument("--n", type=int, help="subdivision count")
    parser.add_argument("--tol", type=float, help="solver tolerance")
    parser.add_argument("--out", help="output path")
    parser.add_argument(
        "--embedding-check", action="store_true", default=None,
        help="enable the all-pairs embedding certification",
    )
    parser.add_argument("--seed", type=int, help="seed for sampled-pair norms")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isomesh",
        description="Piecewise linear isotropic torus approximation pipeline.",
        epilog=_CONFIG_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("sample", "sample the map and report density norms"),
        ("solve", "project the samples onto the isotropic meshes"),
        ("refine", "solve and refine with optimal apexes"),
        ("build", "build the PL map and report distances"),
        ("verify", "certify isotropy, immersion and optionally embedding"),
        ("export", "run the pipeline and export the mesh (--out required)"),
        ("study", "convergence study over n_list with fitted slopes"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_common(p)
    return parser


def _config_from_args(args) -> PipelineConfig:
    overrides = {
        "spec": args.spec,
        "n": args.n,
        "tol": args.tol,
        "out": args.out,
        "seed": args.seed,
    }
    if args.embedding_check:
        overrides["embedding_check"] = True
    return load_config(args.config, overrides)


_REPORT_KEYS = {
    "sample": ("spec", "n", "facets", "mu_c0", "mu_c1w", "mu_holder", "liouville_max"),
    "solve": (
        "spec", "n", "facets", "mu_c0",
        "solve_iterations", "solve_residual_c0", "correction_c0",
    ),
    "refine": (
        "spec", "n", "facets", "solve_iterations", "apex_offset_max", "tri_c0",
    ),
    "build": (
        "spec", "n", "facets", "tri_c0", "pl_c0", "pl_c1", "interp_c0",
    ),
    "verify": (
        "spec", "n", "facets", "iso_residual_max", "iso_scale",
        "isotropy", "immersion", "embedding",
    ),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "study":
            result = convergence_study(cfg)
            if cfg.out:
                with open(cfg.out, "w") as handle:
                    handle.write(result.table)
            else:
                sys.stdout.write(result.table)
            return EXIT_OK

        if args.command == "export" and not cfg.out:
            print("config error: export needs --out", file=sys.stderr)
            return EXIT_CONFIG

        res = run_pipeline(cfg)
        keys = _REPORT_KEYS.get(args.command)
        report = res.report if keys is None else {k: res.report[k] for k in keys}
        text = format_report(report)
        sys.stdout.write(text)

        if args.command == "export":
            export_mesh(res.plm, cfg.out, projection=cfg.projection)
            with open(f"{cfg.out}.report", "w") as handle:
                handle.write(format_report(res.report))
        elif cfg.out:
            with open(cfg.out, "w") as handle:
                handle.write(format_report(res.report))

        if args.command == "verify":
            failed = res.report["isotropy"] != "pass" or res.report["immersion"] != "pass"
            if cfg.embedding_check and res.report["embedding"] != "pass":
                failed = True
            if failed:
                return EXIT_CERTIFICATION
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MaxIterExceeded, LinearSolveFailure, NotIsotropic, DegenerateLattice) as exc:
        print(f"pipeline error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
