"""isomesh benchmark: one workload per call, or all of them with ``--workload all``.

    python3 bench/run.py --workload certify-f8c-n96 --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

Run from a checkout of the repository.  With ``--trace 0`` the run measures
the end-to-end metrics: set-up time (fresh interpreters importing
``isomesh.cli``), then a fresh worker process that runs one warm-up op and
timed ops for ``--seconds``.  With ``--trace 1`` the worker alternates
untraced and traced ops and reports the per-layer metrics.  ``all`` runs every
workload untraced, then every workload traced, and prints every metric.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the provenance, each
metric's median, quartiles and sample count, and the failed ratio.  The full
result, spans included, is written to ``bench/results/``.  METRICS.md
describes every metric and workload.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from harness import WORKLOADS, summary  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402

#: End-to-end metric name -> unit.
END_TO_END = {"run_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_REPEATS = 5
#: Each measured run, set-up and worker included, ends within this many seconds.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not measure (missing program, crashed worker)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def provenance(seed: int, versions: dict) -> dict:
    sources = sorted((ROOT / "src" / "isomesh").rglob("*.py"))
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        **versions,
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
        "seed": seed,
        "src_isomesh_lines": sum(len(p.read_text().splitlines()) for p in sources),
    }


def measure_setup(deadline: float) -> list:
    """Wall times of fresh interpreters that import isomesh.cli and exit."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import isomesh.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"import isomesh.cli failed:\n{proc.stderr}")
    return times


def run_worker(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker for {workload} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """One run: set-up (untraced only) and the worker; metrics with summaries."""
    setup = [] if trace else measure_setup(deadline)
    raw = run_worker(workload, seed, seconds, trace, deadline)
    if trace:
        units = {k: LAYER_METRICS[k][0] for k in LAYER_METRICS}
        metrics = {k: {"value": raw["layer"][k], "unit": units[k]} for k in LAYER_METRICS}
        stats = {
            "trace.run_s": summary(raw["traced_walls"]),
            "untraced.run_s": summary(raw["walls"]),
        }
    else:
        stats = {
            "run_s": summary(raw["walls"]),
            "peak_rss_mb": summary([raw["peak_rss_kb"] / 1024.0]),
            "setup_s": summary(setup),
        }
        metrics = {k: {"value": stats[k]["median"], "unit": END_TO_END[k]} for k in END_TO_END}
    raw.pop("layer", None)
    return {
        "workload": workload,
        "trace": trace,
        "provenance": provenance(seed, raw.pop("versions")),
        "metrics": metrics,
        "stats": stats,
        "absent": raw.get("absent", []),
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "failures": raw["failures"],
        "raw": raw,
    }


def write_result(result: dict, seed: int):
    out = BENCH / "results"
    out.mkdir(exist_ok=True)
    path = out / f"{result['workload']}-seed{seed}-trace{result['trace']}.json"
    with open(path, "w") as handle:
        json.dump(result, handle)


def print_result(result: dict):
    print(f"# workload {result['workload']} trace {result['trace']}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    stats = result["stats"]
    for name, m in result["metrics"].items():
        note = "  (absent)" if name in result["absent"] else ""
        if name in stats:
            s = stats[name]
            note = f"  median of n {s['n']}, q1 {s['q1']:.6g}, q3 {s['q3']:.6g}"
        print(f"  {name:<32} {m['value']:.6g} {m['unit']}{note}")
    for name, s in stats.items():
        if name not in result["metrics"]:
            print(f"  {name:<32} {s['median']:.6g} s  median of n {s['n']}, "
                  f"q1 {s['q1']:.6g}, q3 {s['q3']:.6g}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'failed_ratio':<32} {ratio:.6g} fraction "
          f"({result['failed']} of {result['attempted']} ops)")
    for problems in result["failures"]:
        print("  failure: " + "; ".join(problems)[:2000])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "isomesh" / "cli.py").is_file():
        print(f"isomesh sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        plan = [(w, t) for t in (0, 1) for w in WORKLOADS]
    else:
        plan = [(args.workload, args.trace)]
    results = []
    try:
        for workload, trace in plan:
            deadline = time.monotonic() + DEADLINE_S
            result = measure(workload, args.seed, args.seconds, trace, deadline)
            write_result(result, args.seed)
            print_result(result)
            results.append(result)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}:{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
