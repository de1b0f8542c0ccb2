#!/usr/bin/env python3
"""Run the dyadic convergence study and print the CSV table with slopes.

The default instance is the figure-eight x circle torus, which exercises the
projection step non-trivially; product-of-circles samples are exactly
isotropic on linear charts and report NA slopes for the density columns.

Usage:
    python scripts/convergence_study.py [--spec NAME] [--n-list 8,16,32,64]
                                        [--embedding-check] [--timings]
                                        [--out table.csv]
"""

import argparse
import sys

from isomesh.cli import PipelineConfig, convergence_study


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", default="product:figure8,circle")
    parser.add_argument("--n-list", default="8,16,32,64")
    parser.add_argument("--embedding-check", action="store_true")
    parser.add_argument("--timings", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    cfg = PipelineConfig(
        spec=args.spec,
        n_list=tuple(int(x) for x in args.n_list.split(",")),
        embedding_check=args.embedding_check,
        timings=args.timings,
    )
    result = convergence_study(cfg)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(result.table)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(result.table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
