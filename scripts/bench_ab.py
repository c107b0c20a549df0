#!/usr/bin/env python3
"""A/B benchmark of a change against its parent: perfbench/run.py, in alternating pairs.

    python3 scripts/bench_ab.py --parent <sha> --pairs 10
    python3 scripts/bench_ab.py --parent <sha> --change "$(git write-tree)" --pairs 10

Both sides are extracted from git (``git archive``) into two fresh
directories whose names have the same length (perfbench's peak_rss_mb moves
with that length), so neither runs from a working tree.  --change defaults to
HEAD; a tree id such as the output of ``git write-tree`` measures the staged
files.  Pair k runs every workload of BENCHMARK.json on both sides at seed
FIRST_SEED + k for BENCHMARK.json's run_seconds, the parent first in even
pairs and the change first in odd ones.  Then each side runs every workload
once traced (``--trace 1``) at the first pair's seed, the in-process
cost of fresh configurations and of the one-row TDOA calls is probed (PROBE),
the CLI cold start is probed per golden case (COLD_REPS), and the first-cycle
failures are counted on both sides at each of FAILURE_SEEDS.
The result goes to BENCH_<parent>.json at the repository root: per workload
and end-to-end metric the quartiles of each side, the ratio of the medians,
the pairs the change won and the median gap in units of the parent's
interquartile range; per workload the traced per-layer metrics of both sides;
the first-cycle failure counts by class; the machine (CPU, Python, NumPy,
BLAS and its thread count); and every run's result line.
The extracted directories are removed afterwards.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")  # also the directory names: equal length
FIRST_SEED = 301  # pair k runs at seed FIRST_SEED + k
# the first cycle of fresh_mixed and toa_stream, whose failures are counted
FAILURE_SEEDS = (101, 102, 103)
FAILURE_SECONDS = 3


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    """The files of rev (a commit or a tree) in dest, without a .git."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run(checkout: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One perfbench/run.py run; its last stdout line, and the detail file it wrote."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout.name} {workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    detail = checkout / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return {"result": json.loads(proc.stdout.splitlines()[-1]),
            "detail": json.loads(detail.read_text(encoding="utf-8"))}


# In-process costs, the fastest of 7 x 2000 calls each: the round trips on a fresh
# configuration, validate_config included, on (0,0) (1,0) (0.6,0.7) and on the collinear
# (0,0) (1,0) (0.3,0) (validate_config, classify_tau and invert3_collinear on its lift); and
# the one-row TDOA calls on the reused configurations, for an EMinus tau, a U_i tau, a
# collinear tau and invert_tdoa; and tau_fibers on the 225 rows of the collinear
# configuration's 15^2 census grid (extent 1.2 d_max, row-major, as fiber_census.py builds it).
PROBE = """
import json, time
import numpy as np
import rangegeom as rg
R = [(0.0, 0.0), (1.0, 0.0), (0.6, 0.7)]
RC = [(0.0, 0.0), (1.0, 0.0), (0.3, 0.0)]
cfg, col = rg.validate_config(R), rg.validate_config(RC)
x = np.array([0.3, 0.4])
T, tau = cfg.distances(x), rg.tau_map(cfg, x)
lens = rg.tau_map(cfg, cfg.m(1) + np.array([0.017, 0.011]))
ctau = rg.tau_map(col, np.array([0.5, 0.4]))
axis = np.linspace(-1.2 * col.d_max, 1.2 * col.d_max, 15)
grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
assert rg.classify_tau(cfg, tau).label == "EMinus" and rg.classify_tau(cfg, lens).label == "U_1"
assert rg.classify_tau(col, ctau).label == "CollinearInterior"
def toa():
    c = rg.validate_config(R)
    rg.invert3(c, T)
def tdoa():
    c = rg.validate_config(R)
    rg.classify_tau(c, tau)
    rg.invert_tdoa(c, tau)
def collinear():
    c = rg.validate_config(RC)
    rg.invert3_collinear(c, rg.classify_tau(c, ctau).lift)
best = {}
for name, fn in (("validate_config+invert3", toa),
                 ("validate_config+classify_tau+invert_tdoa", tdoa),
                 ("validate_config+classify_tau+invert3_collinear", collinear),
                 ("classify_tau EMinus", lambda: rg.classify_tau(cfg, tau)),
                 ("classify_tau U_1", lambda: rg.classify_tau(cfg, lens)),
                 ("classify_tau collinear", lambda: rg.classify_tau(col, ctau)),
                 ("invert_tdoa", lambda: rg.invert_tdoa(cfg, tau)),
                 ("tau_fibers collinear 15x15", lambda: rg.tau_fibers(col, grid))):
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(2000):
            fn()
        times.append((time.perf_counter() - t0) / 2000 * 1e6)
    best[name] = min(times)
print(json.dumps(best))
"""


def side_env(checkout: Path) -> dict:
    """The environment as given, on the checkout's src/, BLAS on one thread."""
    return dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def probe(checkout: Path) -> dict:
    """PROBE in a fresh interpreter on the checkout's src/, BLAS on one thread."""
    proc = subprocess.run([sys.executable, "-c", PROBE], env=side_env(checkout), check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout)


# CLI cold start per golden case of tests/test_cli.py: COLD_REPS rounds of one fresh
# perfbench/cli_entry.py process per case and side, the side that goes first alternating.
# Kept: the fastest `import rangegeom` of each side and the fastest command of each case.
# Run twice: in the environment as given (PYTHONDONTWRITEBYTECODE=1 makes every process
# compile the package), and with a PYTHONPYCACHEPREFIX per side warmed by one run of every
# case first, which leaves compilation out (ROADMAP item 11's floor).
COLD_REPS = 8
CASES_SCRIPT = """
import json, test_cli
print(json.dumps({n: [a, str(test_cli._golden_path(n))] for n, a in test_cli.CASES.items()}))
"""


def cli_cases(checkout: Path) -> dict:
    """name -> (argv, golden file) of the checkout's golden CLI cases."""
    env = side_env(checkout)
    env["PYTHONPATH"] += os.pathsep + str(checkout / "tests")
    proc = subprocess.run([sys.executable, "-c", CASES_SCRIPT], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout)


def cli_entry(checkout: Path, argv: list, golden: str, env: dict) -> tuple:
    """(import s, command s) of one fresh cli_entry.py process, whose stdout must be golden."""
    r, w = os.pipe()
    try:
        proc = subprocess.run([sys.executable, "perfbench/cli_entry.py", str(w), *argv],
                              cwd=checkout, env=env, pass_fds=(w,), capture_output=True)
    finally:
        os.close(w)
    with os.fdopen(r) as fh:
        times = fh.read().split()
    if proc.returncode != 0 or proc.stdout != Path(golden).read_bytes():
        raise RuntimeError(f"{checkout.name} {argv}: exit {proc.returncode}, or not the golden "
                           f"output\n{proc.stderr.decode()}")
    return float(times[0]), float(times[1])


def cold_start(work: Path) -> dict:
    """Per mode: each side's fastest import, each case's fastest command, and their sums' median."""
    cases = {side: cli_cases(work / side) for side in SIDES}
    out = {}
    for mode in ("as_given", "warm_pycache"):
        envs = {side: side_env(work / side) for side in SIDES}
        if mode == "warm_pycache":
            for side in SIDES:
                envs[side].pop("PYTHONDONTWRITEBYTECODE", None)
                envs[side]["PYTHONPYCACHEPREFIX"] = str(work / f"pycache-{side}")
                for argv, golden in cases[side].values():
                    cli_entry(work / side, argv, golden, envs[side])
        imports = {side: math.inf for side in SIDES}
        commands = {name: {side: math.inf for side in SIDES} for name in sorted(cases["change"])}
        for rep in range(COLD_REPS):
            for name in commands:
                for side in (SIDES if rep % 2 == 0 else SIDES[::-1]):
                    import_s, command_s = cli_entry(work / side, *cases[side][name], envs[side])
                    imports[side] = min(imports[side], import_s)
                    commands[name][side] = min(commands[name][side], command_s)
        out[mode] = {"import_s": imports, "command_s": commands,
                     "median_case_s": {side: imports[side] + statistics.median(
                         c[side] for c in commands.values()) for side in SIDES}}
    return out


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else values * 3
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def summarize(runs: list, metrics: list) -> dict:
    """Per workload and end-to-end metric: both sides' quartiles and the change's pair wins."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
        out[workload] = {}
        for m in metrics:
            values = {side: [p[side][m["name"]]["value"] for p in pairs.values()] for side in SIDES}
            sign = 1.0 if m["better"] == "higher" else -1.0
            wins = sum(sign * (c - p) > 0.0 for p, c in zip(values["parent"], values["change"]))
            parent, change = quartiles(values["parent"]), quartiles(values["change"])
            iqr = parent["q3"] - parent["q1"]
            gap = sign * (change["median"] - parent["median"])
            out[workload][m["name"]] = {
                "parent": parent, "change": change,
                "change_over_parent_median": change["median"] / parent["median"],
                "change_wins": f"{wins}/{len(pairs)}",
                "median_gap_over_parent_iqr": gap / iqr if iqr > 0.0 else None,
            }
    return out


def machine(provenance: dict) -> dict:
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        models = [ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines()
                  if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    return {"cpu": cpu, "nproc": provenance.get("nproc"), "arch": platform.machine(),
            "python": provenance.get("python"), "numpy": provenance.get("numpy"),
            "blas": provenance.get("blas"), "blas_threads": provenance.get("blas_threads")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent commit")
    parser.add_argument("--change", default="HEAD", help="the change: a commit or a tree")
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)

    parent = git("rev-parse", "--short=7", args.parent)
    change = git("rev-parse", args.change)
    workloads = [w["name"] for w in spec["workloads"]]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # a kill still cleans up below
    work = Path(tempfile.mkdtemp(prefix="bench_ab_"))
    runs, traced, failures, probes, cold, provenance = [], {}, {}, {}, {}, {}
    try:
        trees = {"parent": parent, "change": change}
        for side in SIDES:
            extract(trees[side], work / side)
        for pair in range(args.pairs):
            seed = FIRST_SEED + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    out = run(work / side, workload, seed, spec["run_seconds"])
                    provenance = out["detail"]["provenance"]
                    runs.append({"workload": workload, "pair": pair, "seed": seed, "side": side,
                                 "first": side == order[0], "result": out["result"]})
                    print(f"pair {pair} {workload} {side}: "
                          f"{out['result']['metrics']['throughput_qps']['value']:.6g} 1/s",
                          flush=True)
        for workload in workloads:
            layers = traced[workload] = {"correct": {}, "metrics": {}}
            for side in SIDES:
                result = run(work / side, workload, FIRST_SEED, spec["run_seconds"], 1)["result"]
                layers["correct"][side] = result["correct"]
                for name, m in result["metrics"].items():
                    layers["metrics"].setdefault(name, {"unit": m["unit"]})[side] = m["value"]
        for _ in range(3):
            for side in SIDES:
                for name, us in probe(work / side).items():
                    fastest = probes.setdefault(name, {}).setdefault(side, us)
                    probes[name][side] = min(fastest, us)
        cold = cold_start(work)
        for workload in ("fresh_mixed", "toa_stream"):
            for seed in FAILURE_SEEDS:
                for side in SIDES:
                    detail = run(work / side, workload, seed, FAILURE_SECONDS)["detail"]
                    failures.setdefault(workload, {}).setdefault(str(seed), {})[side] = {
                        "failed": detail["failed"], "attempted": detail["attempted"],
                        "by_class": detail["failures"], "unknown_classes": detail["unexpected"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    bench = {
        "parent": parent,
        "change": change,
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                   "--seconds <seconds> --trace 0",
        "protocol": {
            "pairs": args.pairs, "seconds": spec["run_seconds"],
            "seeds": [FIRST_SEED + k for k in range(args.pairs)], "workloads": workloads,
            "order": "every workload on both sides per pair; the parent first in even pairs",
            "checkouts": "git archive into directories named parent/ and change/",
            "failure_seeds": FAILURE_SEEDS, "failure_seconds": FAILURE_SECONDS,
        },
        "machine": machine(provenance),
        "summary": summarize(runs, spec["end_to_end"]),
        "per_layer": {"about": f"one --trace 1 run per side and workload at seed {FIRST_SEED}, "
                               f"{spec['run_seconds']} s", **traced},
        "fresh_config_us": {"about": "fastest of 7 x 2000 in-process calls, 3 interpreters "
                                     "per side: round trips on a fresh (0,0) (1,0) (0.6,0.7) "
                                     "and (0,0) (1,0) (0.3,0), one-row TDOA calls on them "
                                     "reused", **probes},
        "cli_cold_start": {"about": f"fastest of {COLD_REPS} interleaved fresh "
                                    "perfbench/cli_entry.py processes per golden case and side; "
                                    "seconds", **cold},
        "first_cycle_failures": failures,
        "runs": runs,
    }
    path = ROOT / f"BENCH_{parent}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
