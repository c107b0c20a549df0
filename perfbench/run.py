#!/usr/bin/env python3
"""rangegeom benchmark: four closed-loop workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload toa_stream --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout; the library is imported from its ``src/``.
Each workload runs in fresh worker processes (one caller, single-threaded,
BLAS pinned to one thread).  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer metrics of a separate traced run.
Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Details and
spans go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# Fresh interpreters per import-time probe of the traced run.
IMPORT_REPS = 5
# Each workload process must finish within this many seconds beyond --seconds.
WORKER_GRACE = 120.0
REQUIRED = ("src/rangegeom/__init__.py", "scripts/fiber_census.py", "tests/oracles.py",
            "tests/test_cli.py", "tests/golden")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cli_cases() -> dict:
    """The golden CLI cases of tests/test_cli.py: name -> argv and golden file."""
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("bench_test_cli", ROOT / "tests" / "test_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: {"argv": list(argv), "golden": str(module._golden_path(name))}
            for name, argv in module.CASES.items()}


def spawn(job: dict, timeout: float) -> dict:
    """Run one workload process; return its result."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                            cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and every process it started
        proc.communicate()
        raise RuntimeError(f"{job['workload']} worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{job['workload']} worker exited with {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def import_times() -> dict:
    """Fresh-interpreter medians: bare start, + numpy, + rangegeom (alternating)."""
    probes = {"pass": "pass", "numpy": "import numpy", "rangegeom": "import rangegeom"}
    times = {k: [] for k in probes}
    for _ in range(IMPORT_REPS):
        for key, code in probes.items():
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=worker_env(), check=True)
            times[key].append(time.perf_counter() - t0)
    med = {k: statistics.median(v) for k, v in times.items()}
    return {
        "cli.interpreter_s": med["pass"],
        "cli.numpy_import_s": med["numpy"] - med["pass"],
        "cli.import_s": med["rangegeom"] - med["numpy"],
    }


def provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool, out_dir: Path) -> dict:
    job = {"workload": name, "seed": seed, "seconds": seconds, "root": str(ROOT),
           "out_dir": str(out_dir), "mode": "trace" if trace else "measure"}
    if name == "cli_cold":
        job["cases"] = cli_cases()
    result = spawn(job, seconds + WORKER_GRACE)
    # the fastest set-up of the run, as each latency is its query's fastest execution
    result["setup_s"] = min(result["setup_runs_s"])
    if trace:
        result["layers"].update(import_times())
        result["layers"]["fail_ratio"] = result["failed"] / max(result["attempted"], 1)
        result["layers"]["bench.tail_percentile"] = result["tail_percentile"]
        result["layers"]["bench.samples"] = result["samples"]
    return result


def metrics_for(spec_metrics: list, values: dict, workload: str) -> dict:
    out = {}
    for m in spec_metrics:
        value = values.get(m["name"])
        if value is None and m["name"].startswith("cli.") and workload != "cli_cold":
            value = 0.0  # the cli module is loaded only by the cli_cold workload
        if value is None:
            raise KeyError(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing or not (ROOT / "BENCHMARK.json").is_file():
        print(f"not a rangegeom checkout: missing {missing or ['BENCHMARK.json']}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    prov = provenance()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    lines = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, trace, out_dir)
        except (RuntimeError, subprocess.CalledProcessError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        if trace:
            metrics = metrics_for(spec["per_layer"], result["layers"], name)
        else:
            metrics = metrics_for(spec["end_to_end"], result, name)
        correct = (not result["unexpected"] and not result["timed"]["unexpected"]
                   and not result.get("traced_unexpected") and result.get("restored", True))
        lines[name] = {"correct": correct, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics}
        detail = dict(result, provenance=prov, seed=args.seed, seconds=args.seconds, trace=trace)
        (out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(detail, indent=1, sort_keys=True), encoding="utf-8")

        print(f"== {name} (seed {args.seed}, {args.seconds} s, trace {args.trace})")
        for key, m in metrics.items():
            print(f"  {key:44s} {m['value']:.6g} {m['unit']}")
        print(f"  {result['samples']} executions of {result['distinct_queries']} distinct queries "
              f"({result['cycles']} complete cycles); tail = p{result['tail_percentile']:g} "
              f"({result['beyond_tail']} executions beyond); set-up runs "
              f"{[round(s, 4) for s in result['setup_runs_s']]} s")
        print(f"  fail_ratio {result['failed'] / max(result['attempted'], 1):.6g} "
              f"(failed {result['failed']} of {result['attempted']} answers of the first cycle: "
              f"{result['failures']}; outside the known defects: {result['unexpected']})")
        timed = result["timed"]
        print(f"  timed loop: failed {timed['failed']} of {timed['attempted']} answers: "
              f"{timed['failures']}; outside the known defects: {timed['unexpected']}")
        print(f"  provenance {prov}")
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
