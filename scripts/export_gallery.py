#!/usr/bin/env python3
"""Build and export the built-in tori as symmesh files plus 3d projections.

Writes, for each instance, the full-dimensional mesh `<name>.symmesh`, a
3-coordinate projection `<name>.symmesh.obj` viewable in standard mesh tools,
and the pipeline report `<name>.symmesh.report`.

Usage:
    python scripts/export_gallery.py [--n 16] [--outdir meshes]
"""

import argparse
import pathlib
import sys

from isomesh.cli import PipelineConfig, format_report, run_pipeline
from isomesh.plmap import export_mesh

INSTANCES = {
    "clifford": "clifford",
    "figure8_circle": "product:figure8,circle",
    "flat_plane": "flat-plane",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=16)
    parser.add_argument("--outdir", default="meshes")
    args = parser.parse_args(argv)
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, spec in INSTANCES.items():
        cfg = PipelineConfig(spec=spec, n=args.n)
        res = run_pipeline(cfg)
        path = outdir / f"{name}.symmesh"
        export_mesh(res.plm, path, projection=(0, 1, 2))
        with open(f"{path}.report", "w") as handle:
            handle.write(format_report(res.report))
        rep = res.report
        print(
            f"{name}: {rep['facets']} facets, pl_c0 = {rep['pl_c0']:.3e}, "
            f"immersion = {rep['immersion']} -> {path}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
