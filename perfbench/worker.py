"""One workload process: set up, print READY, then measure (or trace) and report.

Run by ``run.py`` as ``python perfbench/worker.py '<job json>'``.  Set-up is
timed from just before ``import rangegeom`` to the READY line, less the
benchmark's own input generation: importing the package, validating the
reused configs and one untimed warm-up query.  Interpreter start and the
numpy import come before it (the benchmark's own modules need numpy); the
traced run reports both as floors.  The READY line carries the set-up
seconds.  The last line of stdout is the result.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads

# Tail percentiles offered, highest first; the highest one at or below the
# workload's cap that leaves at least TAIL_BEYOND executions above it is used.
TAIL_LADDER = (99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_BEYOND = 10
# Set-up is timed in this many fresh processes: this one and set-up-only
# probes spread evenly over the measured run.  The fastest is reported.
SETUP_REPS = 15
# Queries a set-up-only process builds (enough for every warm-up).
SETUP_POOL = 16


def closed_loop(wl, run, seconds: float, count: int = None, pause=None, pauses: int = 0,
                start: int = 0) -> dict:
    """Send the next query only after the previous one returned.

    Cycles through the query pool for `seconds`, or until query number
    `count` when given, from query number `start`.  Cycle c runs
    ``wl.cycle(c)``: the same work as the pool, on inputs that need not
    repeat.  Keeps each pool index's fastest execution over the cycles, and
    the answers judged and the failures of each query number.  ``pause()``
    is called `pauses` times, evenly spread over the run, between two
    queries; the time it takes is added to the run and counts nowhere.
    """
    n = len(wl.queries)
    clock = time.perf_counter
    best = [math.inf] * n
    busy = 0.0
    generation = 0.0
    paused = 0.0
    points = 0
    judged = []
    failed_at = []  # (query number, failure class, known defect)
    queries = None
    i = start
    begin = clock()
    deadline = begin + seconds
    every = seconds / (pauses + 1)
    next_pause = begin + every if pause is not None and pauses else math.inf
    while (i < count) if count is not None else (clock() < deadline):
        if clock() >= next_pause:
            p0 = clock()
            pause()
            dp = clock() - p0
            paused += dp
            deadline += dp
            pauses -= 1
            next_pause = next_pause + every + dp if pauses else math.inf
        k = i % n
        if k == 0 or queries is None:  # each cycle gets its own copy of the pool, built untimed
            g0 = clock()
            queries = wl.cycle(i // n)
            generation += clock() - g0
        q = queries[k]
        i += 1
        t0 = clock()
        try:
            out = run(q)
        except Exception as exc:  # a raised query is a failed answer, the run goes on
            dt = clock() - t0
            j, fails = wl.points(q), [f"exception:{type(exc).__name__}"]
        else:
            dt = clock() - t0
            try:
                j, fails = wl.check(q, out)
            except Exception as exc:  # a check that cannot judge the answer fails it
                j, fails = wl.points(q), [f"check:{type(exc).__name__}"]
        best[k] = min(best[k], dt)
        busy += dt
        points += wl.points(q)
        judged.append(j)
        failed_at.extend((i - 1, f, wl.known(q, f)) for f in fails)
    return {
        "best": best,
        "start": start,
        "queries": i,
        "points": points,
        "busy": busy,
        "wall": clock() - begin - generation - paused,
        "judged": judged,
        "failed_at": failed_at,
    }


def latency_stats(wl, loop: dict) -> dict:
    """Throughput and latency percentiles of the complete cycles of a loop.

    The machine's speed drifts by up to ~1.8x over seconds on a shared
    2-vCPU host, so each execution's latency is taken as the fastest
    execution of the same pool index in the run: its copies in every cycle
    do the same work, and the spread between them is the machine, not the
    program.  Only complete cycles count, so every query has the same
    weight; a run too short for one cycle uses the queries it reached.
    """
    n = len(wl.queries)
    cycles = loop["queries"] // n
    reached = n if cycles else loop["queries"]
    weight = max(cycles, 1)
    idx = range(reached)
    pts = np.array([wl.points(wl.queries[k]) for k in idx], dtype=float)
    best = np.array([loop["best"][k] for k in idx])
    per_point = best / pts
    tail_p, tail, beyond = 50.0, 0.0, 0
    for p in TAIL_LADDER:
        if p > wl.tail_cap:
            continue
        tail = float(np.percentile(per_point, p))
        beyond = weight * int(np.sum(per_point > tail))
        tail_p = p
        if beyond >= TAIL_BEYOND:
            break
    return {
        "throughput_qps": float(pts.sum() / best.sum()),
        "latency_p50_us": float(np.median(per_point)) * 1e6,
        "latency_tail_us": tail * 1e6,
        "tail_percentile": tail_p,
        "samples": weight * reached,
        "distinct_queries": reached,
        "cycles": cycles,
        "beyond_tail": beyond,
    }


def tally(loop: dict, upto: int = None) -> dict:
    """Answers judged and failures of a loop, or of its queries numbered below `upto`."""
    upto = loop["queries"] if upto is None else upto
    failures, unexpected = Counter(), Counter()
    for i, f, known in loop["failed_at"]:
        if i < upto:
            failures[f] += 1
            if not known:
                unexpected[f] += 1
    return {"attempted": sum(loop["judged"][: max(upto - loop["start"], 0)]),
            "failed": sum(failures.values()), "failures": failures, "unexpected": unexpected}


def fixed_tally(wl, run, loop: dict) -> dict:
    """``attempted`` and ``failed`` over the first cycle: every pool query judged once.

    A timed loop runs as many queries as the machine's speed allows, and the
    known-defect failures among them vary with that count; the first cycle's
    inputs are fixed by the seed, so these counts are the same in every run of
    a seed.  Pool queries the timed loop did not reach run after it, untimed.
    """
    n = len(wl.queries)
    out = tally(loop, n)
    if loop["queries"] < n:
        rest = tally(closed_loop(wl, run, 0.0, count=n, start=loop["queries"]))
        out["attempted"] += rest["attempted"]
        out["failures"] += rest["failures"]
        out["unexpected"] += rest["unexpected"]
    if isinstance(wl, workloads.TdoaCensus):
        judged, fails = wl.oracle_sample()
        out["attempted"] += judged
        out["failures"].update(fails)
        out["unexpected"].update(fails)
    out["failed"] = sum(out["failures"].values())
    return out


def layer_metrics(tr, wall: float, queries: int) -> dict:
    """Per-layer numbers of one traced phase (counts are per query: per grid point for the census)."""
    out = {}
    per_q = 1.0 / queries if queries else 0.0
    for name in tr.names:
        calls = tr.calls.get(name, 0)
        out[f"{name}.calls"] = calls * per_q
        out[f"{name}.us_per_call"] = tr.total.get(name, 0.0) / calls * 1e6 if calls else 0.0
        out[f"{name}.self_us_per_call"] = tr.self_time.get(name, 0.0) / calls * 1e6 if calls else 0.0
    for group in ("EMinus", "U", "OutsideIm", "Boundary", "Collinear"):
        key = f"tdoa.classify_tau.{group}"
        calls = tr.groups.get(key, 0)
        out[f"{key}.calls"] = calls * per_q
        out[f"{key}.us_per_call"] = tr.group_time.get(key, 0.0) / calls * 1e6 if calls else 0.0
    classify = tr.calls.get("tdoa.classify_tau", 0)
    out["tdoa.tdoa_coeffs.calls_per_classify"] = tr.coeffs_under_classify / classify if classify else 0.0
    for name in ("tdoa.invert_tdoa", "toa3.invert3"):
        calls = tr.calls.get(name, 0)
        out[f"{name}.empty_ratio"] = tr.groups.get(f"{name}.empty", 0) / calls if calls else 0.0
    modules = {name.split(".")[0] for name in tr.names}
    for mod in modules:
        own = sum(t for name, t in tr.self_time.items() if name.split(".")[0] == mod)
        out[f"{mod}.self_share"] = own / wall
    out["bench.self_share"] = (wall - tr.top_level) / wall
    return out


def attributes_restored(before: dict) -> bool:
    return all(vars(owner).get(attr) is value for (owner, attr), value in before.items())


def snapshot(rg) -> dict:
    """Every attribute of every program module, and SensorConfig's methods."""
    snap = {}
    for mod in tracing.program_modules(rg):
        for attr, value in vars(mod).items():
            snap[(mod, attr)] = value
    cls = rg.config.SensorConfig
    for attr, value in vars(cls).items():
        snap[(cls, attr)] = value
    return snap


def setup_probe(job: dict) -> float:
    """Set-up seconds of one fresh set-up-only worker process."""
    proc = subprocess.run([sys.executable, __file__, json.dumps(dict(job, mode="setup"))],
                          capture_output=True, text=True, check=True, timeout=60)
    ready = [ln for ln in proc.stdout.splitlines() if ln.startswith("READY ")]
    return float(ready[0].split()[1])


def main() -> int:
    job = json.loads(sys.argv[1])
    root = Path(job["root"])
    start = time.perf_counter()
    import rangegeom as rg

    if not Path(rg.__file__).resolve().is_relative_to(root / "src"):
        print(f"rangegeom imported from {rg.__file__}, not from the checkout", file=sys.stderr)
        return 3
    t0 = time.perf_counter()
    # a set-up-only process builds a short pool: the same first queries, the same set-up
    pool = SETUP_POOL if job["mode"] == "setup" else None
    wl = workloads.build(job["workload"], rg, root, job["seed"], job.get("cases"), pool)
    generation = time.perf_counter() - t0
    wl.prepare()
    wl.warm_up()
    setup = time.perf_counter() - start - generation
    print("READY", setup, flush=True)
    if job["mode"] == "setup":
        return 0

    gc.collect()
    gc.freeze()
    seconds = job["seconds"]
    result = {}
    if job["mode"] == "measure":
        setups = [setup]
        with wl.session():
            loop = closed_loop(wl, wl.run, seconds, pause=lambda: setups.append(setup_probe(job)),
                               pauses=SETUP_REPS - 1)
            if isinstance(wl, workloads.CliCold):
                loop["best"] = wl.fastest()
            fixed = fixed_tally(wl, wl.run, loop)
        stats = dict(latency_stats(wl, loop), **fixed)
        stats["timed"] = tally(loop)
        if isinstance(wl, workloads.CliCold):  # for the detail file
            stats["cli_timings"] = wl.timings
        stats["setup_runs_s"] = setups
        if isinstance(wl, workloads.CliCold):  # the largest CLI process
            stats["peak_rss_mb"] = wl.peak_rss_kb / 1024.0
        else:
            stats["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = stats
    else:
        run = wl.run_in_process if isinstance(wl, workloads.CliCold) else wl.run
        plain_loop = closed_loop(wl, run, seconds / 2.0)
        plain = dict(latency_stats(wl, plain_loop), **fixed_tally(wl, run, plain_loop))
        before = snapshot(rg)
        tr = tracing.Tracer(rg)
        tr.install()
        try:  # the same queries again, traced
            traced_loop = closed_loop(wl, run, 0.0, count=plain_loop["queries"])
        finally:
            tr.remove()
        result = dict(plain, setup_runs_s=[setup])
        result["restored"] = attributes_restored(before)
        result["layers"] = layer_metrics(tr, traced_loop["wall"], traced_loop["points"])
        # same queries in both phases: the ratio of their summed time
        result["layers"]["trace_overhead_ratio"] = traced_loop["busy"] / plain_loop["busy"]
        result["timed"] = tally(plain_loop)
        result["traced_unexpected"] = tally(traced_loop)["unexpected"]
        tr.write(Path(job["out_dir"]) / f"spans-{wl.name}.npz")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
