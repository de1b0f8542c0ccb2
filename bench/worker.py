"""One workload in a fresh process: warm-up op, then a closed loop of timed ops.

Started by ``run.py``; prints one JSON object as its last stdout line.  One
client keeps one op in flight: the next ``isomesh.cli.main(argv)`` call starts
when the previous one has returned and its output has been checked.  With
``--trace 1`` untraced and traced ops alternate, so the tracing overhead is
measured in the same process and time window.
"""

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

from harness import WORKLOADS, check_op, check_trace, load_references, summary  # noqa: E402
from spans import LAYER_METRICS, Tracer, instrumented, op_metrics  # noqa: E402


def _import_isomesh() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import isomesh.cli
    import isomesh.plmap
    import isomesh.solver

    src = (ROOT / "src").resolve()
    if src not in Path(isomesh.cli.__file__).resolve().parents:
        raise ImportError(f"isomesh imported from {isomesh.cli.__file__}, not from {src}")
    return {m.__name__: m for m in (isomesh.cli, isomesh.plmap, isomesh.solver)}


def _versions() -> dict:
    import numpy
    import scipy

    blas = None
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


def run_op(cli, argv):
    """Call the CLI once; returns (exit code, stdout, stderr, wall s, cpu s)."""
    out, err = io.StringIO(), io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            err.write(traceback.format_exc(limit=3))
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return code, out.getvalue(), err.getvalue(), wall, cpu


class Loop:
    """Runs, checks and tallies the ops of one workload."""

    def __init__(self, name, seed, references, modules):
        self.name = name
        self.argv = WORKLOADS[name].command(seed)
        self.references = references
        self.modules = modules
        self.attempted = 0
        self.failures = []

    def op(self, tracer=None):
        """One op; returns (wall s, cpu s, layer metrics, metrics without data).

        The layer metrics and the set of unmeasured names are None untraced.
        """
        gc.collect()
        cli = self.modules["isomesh.cli"]
        metrics = missing = None
        if tracer is None:
            code, stdout, stderr, wall, cpu = run_op(cli, self.argv)
            problems = []
        else:
            run_id = tracer.begin_run()
            with instrumented(tracer, self.modules), tracer.span("op"):
                code, stdout, stderr, wall, cpu = run_op(cli, self.argv)
            problems = check_trace(self.name, tracer.values[run_id], self.references)
            metrics, missing = op_metrics(
                tracer.run_spans(run_id), tracer.counts[run_id], tracer.absent
            )
        problems += check_op(self.name, code, stdout, self.references)
        self.attempted += 1
        if problems:
            if stderr:
                problems.append("stderr: " + stderr.strip()[-800:])
            self.failures.append(problems)
        return wall, cpu, metrics, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    modules = _import_isomesh()
    loop = Loop(args.workload, args.seed, load_references(), modules)
    loop.op()  # warm-up: untimed, but checked and counted as attempted
    result = {"versions": _versions()}
    walls, cpus = [], []
    tracer = Tracer() if args.trace else None
    traced_walls, per_op, missing = [], [], set()
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not walls:
        wall, cpu, _, _ = loop.op()
        walls.append(wall)
        cpus.append(cpu)
        if tracer is not None:
            wall, _, metrics, gone = loop.op(tracer)
            traced_walls.append(wall)
            per_op.append(metrics)
            missing |= gone
    if tracer is not None:
        layer = {k: summary([m[k] for m in per_op])["median"] for k in per_op[0]}
        layer["proc.cpu_s"] = summary(cpus)["median"]
        layer["proc.cpu_per_wall"] = summary([c / w for c, w in zip(cpus, walls)])["median"]
        layer["trace.run_s"] = summary(traced_walls)["median"]
        layer["trace.overhead_s"] = layer["trace.run_s"] - summary(walls)["median"]
        result.update(
            layer={k: layer[k] for k in LAYER_METRICS},
            absent=sorted(missing),
            traced_walls=traced_walls,
            spans=[[s.name, s.start, s.end, s.parent, s.run_id] for s in tracer.spans],
            counts={str(k): dict(v) for k, v in tracer.counts.items()},
        )
    result.update(
        walls=walls,
        cpus=cpus,
        attempted=loop.attempted,
        failed=len(loop.failures),
        failures=loop.failures[:5],
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
