"""Smoke runs of the command-line scripts under scripts/."""

import importlib.util
import pathlib

import pytest

from helpers import load_mesh

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_export_gallery(tmp_path, capsys):
    gallery = load_script("export_gallery")
    assert gallery.main(["--n", "4", "--outdir", str(tmp_path)]) == 0
    for name in gallery.INSTANCES:
        path = tmp_path / f"{name}.symmesh"
        report = (tmp_path / f"{name}.symmesh.report").read_text()
        assert "immersion = pass" in report
        facets = int(report.split("facets = ")[1].split()[0])
        # Corners then apexes, four triangles per facet.
        dim, verts, faces = load_mesh(path)
        assert (dim, verts.shape, faces.shape) == (4, (2 * facets, 4), (4 * facets, 3))
        _, pverts, pfaces = load_mesh(f"{path}.obj")
        assert (pverts == verts[:, :3]).all()
        assert (pfaces == faces).all()
    assert capsys.readouterr().out.count(" facets, pl_c0 = ") == 3


@pytest.mark.parametrize("to_file", [False, True])
def test_convergence_study(tmp_path, capsys, to_file):
    study = load_script("convergence_study")
    argv = ["--n-list", "4,6,8"]
    out = tmp_path / "table.csv"
    if to_file:
        argv += ["--out", str(out)]
    assert study.main(argv) == 0
    text = out.read_text() if to_file else capsys.readouterr().out
    lines = text.splitlines()
    assert lines[0] == (
        "n,mu_c0,mu_c1w,mu_holder,correction_c0,tri_c0,pl_c0,pl_c1,"
        "immersion,embedding"
    )
    assert [line.split(",")[0] for line in lines[1:4]] == ["4", "6", "8"]
    assert sum(line.startswith("# slope ") for line in lines) == 7


def test_convergence_study_timings(capsys):
    study = load_script("convergence_study")
    assert study.main(["--n-list", "4,6,8", "--timings"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split(",")
    stages = [i for i, name in enumerate(header) if name.startswith("t_")]
    assert [header[i] for i in stages] == ["t_sample", "t_solve", "t_refine", "t_build", "t_verify"]
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    assert len(rows) == 3
    for cells in rows:
        assert all(float(cells[i]) >= 0.0 for i in stages)
