"""Session fixtures: the dyadic pipeline sweeps reused across test modules."""

import time
from dataclasses import replace

import numpy as np
import pytest

from isomesh.cli import PipelineConfig, run_pipeline
from isomesh.density import facet_liouville, symplectic_density, weak_norm
from isomesh.plmap import build_pl
from isomesh.refine import barycentric_apexes

SWEEP_NS = (8, 16, 32, 64)


def _tri_sup_distance(a, b):
    return max(
        float(np.linalg.norm(a.corner_values - b.corner_values, axis=1).max()),
        float(np.linalg.norm(a.apex_values - b.apex_values, axis=1).max()),
    )


def _sweep(spec_name):
    cfg = PipelineConfig(spec=spec_name)
    out = {}
    for n in SWEEP_NS:
        t0 = time.perf_counter()
        res = run_pipeline(replace(cfg, n=n))
        wall = time.perf_counter() - t0
        tau_tri = res.tau_tri
        hat = barycentric_apexes(res.rho)
        entry = {
            "cfg": cfg,
            "spec": res.spec,
            "chart": res.chart,
            "tau": res.tau,
            "tau_tri": tau_tri,
            "rho": res.rho,
            "tri": res.tri,
            "plm": res.plm,
            "interp": build_pl(tau_tri),
            "hat_c0": _tri_sup_distance(hat, tau_tri),
            "report": res.report,
            "stage_seconds": res.stage_seconds,
            "wall": wall,
        }
        out[n] = entry
    return out


@pytest.fixture(scope="session")
def clifford_sweep():
    """Full pipeline over the dyadic sweep for the clifford(1,1) built-in."""
    return _sweep("clifford")


@pytest.fixture(scope="session")
def figure8_sweep():
    """Full pipeline sweep for the non-degenerate figure8 x circle instance."""
    return _sweep("product:figure8,circle")


@pytest.fixture(scope="session")
def mu_norms_of(clifford_sweep):
    def norms(entry, seed=0):
        mu = symplectic_density(entry["tau"])
        return {
            "C0": weak_norm(mu, "C0"),
            "C1_w": weak_norm(mu, "C1_w"),
            "C0alpha_w": weak_norm(mu, "C0alpha_w", seed=seed),
            "liou_max": float(np.abs(facet_liouville(entry["tau"]).values).max()),
        }

    return norms
