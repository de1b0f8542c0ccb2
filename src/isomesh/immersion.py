"""Smooth doubly periodic parametrizations of tori in R^{2n}.

An immersion spec is a parametric map ell : R^2 -> R^{2n} with first
derivatives, periodic with respect to a lattice Gamma up to a constant
target translation per period (zero for honest torus parametrizations; the
affine "flat-plane" test instance gains one basis vector per period).  Maps
are evaluated in batches: ``eval`` takes (..., 2) arrays of plane points and
returns (..., 2n) values, ``jet`` additionally returns the (..., 2n, 2)
derivative matrix [d ell/ds, d ell/dt].

Built-in instances:

* clifford(r1, r2)        -- product of two circles, embedded, isotropic,
                             conformal when r1 = r2.
* product of plane curves -- (a(s), b(t)) with coordinates (x1,y1,x2,y2);
                             always isotropic since omega has no cross terms.
* figure-eight x circle   -- immersed but not embedded: the Gerono curve
                             (sin(4 pi s)/2, sin(2 pi s)) has a node at
                             s = 0, 1/2, so the torus self-intersects along
                             a circle.
* flat-plane              -- the affine isotropic map (s, 0, t, 0).
"""

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .density import QuadMesh
from .lattice import Chart
from .refine import TriMesh


@dataclass
class ImmersionSpec:
    """Parametric map of the Gamma-periodic plane into R^{2n} with derivatives."""

    dim_n: int
    eval: Callable
    jet: Callable
    gamma_basis: np.ndarray
    target_periods: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        self.gamma_basis = np.asarray(self.gamma_basis, dtype=float)
        if self.target_periods is None:
            self.target_periods = np.zeros((2, 2 * self.dim_n))
        else:
            self.target_periods = np.asarray(self.target_periods, dtype=float)


@dataclass(frozen=True)
class PlaneCurve:
    """Closed plane curve with period 1, with velocity."""

    name: str
    point: Callable
    velocity: Callable


def circle(radius: float = 1.0) -> PlaneCurve:
    if radius <= 0:
        raise ValueError("radius must be positive")

    def point(t):
        t = np.asarray(t, dtype=float)
        w = 2.0 * np.pi * t
        return np.stack([radius * np.cos(w), radius * np.sin(w)], axis=-1)

    def velocity(t):
        t = np.asarray(t, dtype=float)
        w = 2.0 * np.pi * t
        return np.stack(
            [-2.0 * np.pi * radius * np.sin(w), 2.0 * np.pi * radius * np.cos(w)],
            axis=-1,
        )

    return PlaneCurve("circle", point, velocity)


#: Parameters at which the figure-eight curve passes through its node.
FIGURE_EIGHT_NODE_PARAMS = (0.0, 0.5)


def figure_eight() -> PlaneCurve:
    """Gerono figure-eight (sin(4 pi t)/2, sin(2 pi t)); node at t = 0, 1/2."""

    def point(t):
        t = np.asarray(t, dtype=float)
        return np.stack(
            [0.5 * np.sin(4.0 * np.pi * t), np.sin(2.0 * np.pi * t)], axis=-1
        )

    def velocity(t):
        t = np.asarray(t, dtype=float)
        return np.stack(
            [
                2.0 * np.pi * np.cos(4.0 * np.pi * t),
                2.0 * np.pi * np.cos(2.0 * np.pi * t),
            ],
            axis=-1,
        )

    return PlaneCurve("figure8", point, velocity)


def _number_text(x: float) -> str:
    """``x`` in the short ``:g`` form when that reads back as ``x``, else its repr."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x))


def make_clifford(r1: float, r2: float) -> ImmersionSpec:
    """Product-of-circles torus (r1 cos 2 pi s, r1 sin 2 pi s, r2 cos 2 pi t,
    r2 sin 2 pi t); embedded and isotropic, integer period lattice.  Its
    name reads back as the same radii."""
    if not (0 < r1 < np.inf and 0 < r2 < np.inf):  # false for nan too
        raise ValueError("radii must be positive and finite")
    name = f"clifford:{_number_text(r1)},{_number_text(r2)}"
    return replace(make_product_torus(circle(r1), circle(r2)), name=name)


def make_product_torus(curve_a: PlaneCurve, curve_b: PlaneCurve) -> ImmersionSpec:
    """Product torus (a(s), b(t)) in R^4, coordinates ordered (x1,y1,x2,y2).

    Always isotropic: d ell/ds lies in the first factor, d ell/dt in the
    second, and omega pairs within factors only.
    """

    def evaluate(p):
        p = np.asarray(p, dtype=float)
        pa = curve_a.point(p[..., 0])
        pb = curve_b.point(p[..., 1])
        return np.concatenate([pa, pb], axis=-1)

    def jet(p):
        p = np.asarray(p, dtype=float)
        pa = curve_a.point(p[..., 0])
        pb = curve_b.point(p[..., 1])
        va = curve_a.velocity(p[..., 0])
        vb = curve_b.velocity(p[..., 1])
        zero = np.zeros_like(pa)
        ds = np.concatenate([va, zero], axis=-1)
        dt = np.concatenate([zero, vb], axis=-1)
        return np.concatenate([pa, pb], axis=-1), np.stack([ds, dt], axis=-1)

    return ImmersionSpec(
        dim_n=2,
        eval=evaluate,
        jet=jet,
        gamma_basis=np.eye(2),
        name=f"product:{curve_a.name},{curve_b.name}",
    )


def make_flat_plane() -> ImmersionSpec:
    """Affine isotropic map (s, 0, t, 0); image in the span of e_{x1}, e_{x2}.

    Not periodic: each period adds a constant target translation, recorded in
    ``target_periods`` so that sampled meshes stay affine-consistent across
    the fundamental domain wrap.
    """

    def evaluate(p):
        p = np.asarray(p, dtype=float)
        zero = np.zeros_like(p[..., 0])
        return np.stack([p[..., 0], zero, p[..., 1], zero], axis=-1)

    def jet(p):
        p = np.asarray(p, dtype=float)
        val = evaluate(p)
        d = np.zeros(p.shape[:-1] + (4, 2))
        d[..., 0, 0] = 1.0
        d[..., 2, 1] = 1.0
        return val, d

    return ImmersionSpec(
        dim_n=2,
        eval=evaluate,
        jet=jet,
        gamma_basis=np.eye(2),
        target_periods=np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]),
        name="flat-plane",
    )


_CURVES = {"circle": circle, "figure8": figure_eight}


def spec_from_name(name: str) -> ImmersionSpec:
    """Resolve a built-in spec name.

    Accepts "clifford", "clifford:r1,r2", "product:<curve>,<curve>" with
    curves "circle" or "figure8", and "flat-plane".
    """
    name = name.strip()
    if name == "flat-plane":
        return make_flat_plane()
    if name == "clifford":
        return make_clifford(1.0, 1.0)
    if name.startswith("clifford:"):
        parts = name.split(":", 1)[1].split(",")
        if len(parts) != 2:
            raise ValueError(f"expected clifford:r1,r2, got {name!r}")
        return make_clifford(float(parts[0]), float(parts[1]))
    if name.startswith("product:"):
        parts = name.split(":", 1)[1].split(",")
        if len(parts) != 2:
            raise ValueError(f"expected product:curve,curve, got {name!r}")
        curves = []
        for token in parts:
            token = token.strip()
            if token not in _CURVES:
                raise ValueError(f"unknown curve {token!r} (choose from {sorted(_CURVES)})")
            curves.append(_CURVES[token]())
        return make_product_torus(*curves)
    raise ValueError(f"unknown spec {name!r}")


def _check_same_lattice(spec: ImmersionSpec, chart: Chart):
    if not np.allclose(spec.gamma_basis, chart.gamma_basis, atol=1e-12):
        raise ValueError("chart and immersion spec must share the same gamma_basis")


def sample_quad(spec: ImmersionSpec, chart: Chart) -> QuadMesh:
    """Samples tau(v) = ell(position of v) on the canonical vertices."""
    _check_same_lattice(spec, chart)
    kc, lc = chart.all_canonical()
    values = spec.eval(chart.position(kc, lc))
    return QuadMesh(chart, values, target_periods=spec.target_periods.copy())


def sample_tri(spec: ImmersionSpec, chart: Chart) -> TriMesh:
    """Samples on the triangulation: corners at vertices, apexes at facet centers."""
    _check_same_lattice(spec, chart)
    kc, lc = chart.all_canonical()
    corners = spec.eval(chart.position(kc, lc))
    apexes = spec.eval(chart.facet_center(kc, lc))
    return TriMesh(
        chart=chart,
        corner_values=corners,
        apex_values=apexes,
        target_periods=spec.target_periods.copy(),
    )
