"""Seeded inputs, queries and correctness checks of the benchmark workloads.

Inputs come from ``numpy.random.default_rng(seed)`` in this file, never from
``rangegeom.sim``, so a change to the library cannot change what is measured.
Every query calls the library through the package attributes (``rg.name``),
the same bindings the scripts use.

Checks are written against raw geometry (numpy distances), not against the
library's algebra.  A check returns the number of answers it judged and the
failure class of each wrong one; it never raises.  Failures count in
``failed`` whatever their cause.  Two classes are *known* defects of the
library at the commit that introduced this benchmark; any other failure makes
the run incorrect:

* a range-difference inversion on a non-collinear triangle with
  2*area/d_max^2 below ``THIN_QUALITY`` misses the source (the thin-triangle
  ``invert_tdoa`` defect of ROADMAP.md; the test suite's quality filter at the
  same threshold hides it);
* a noisy TOA triple on a collinear configuration, inverted at the matched
  tolerance, yields a point whose ranges miss the triple by more than that
  tolerance (``invert3_collinear`` checks the Stewart quadric and the endpoint
  pair, but does not re-map its answer).
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

# 2*area/d_max^2 below which a triangle counts as thin (the test suite drops
# every triangle under this quality, which is what hides the TDOA defect).
THIN_QUALITY = 0.05
# A true source is "among the solutions" when one lies this close, relative
# to d_max.  Exact inputs recover sources to ~1e-10; the thin-triangle misses
# are off by far more.
POS_RTOL = 1e-6
# Rounding slack when the benchmark re-maps a point the library accepted.
REMAP_SLACK = 1e-9
# Steps of Kronecker sequences: n consecutive shape parameters cover their
# range evenly.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2 = math.sqrt(2.0) - 1.0


# ---------------------------------------------------------------------------
# raw geometry (independent of rangegeom)

def distances(receivers, x) -> np.ndarray:
    rec = np.asarray(receivers, dtype=float)
    return np.linalg.norm(np.asarray(x, dtype=float)[None, :] - rec, axis=1)


def d_max(receivers) -> float:
    rec = np.asarray(receivers, dtype=float)
    return max(float(np.linalg.norm(rec[i] - rec[j])) for i in range(len(rec)) for j in range(i))


def quality(receivers) -> float:
    """2*area/d_max^2 of a planar receiver triple (0 for collinear)."""
    a, b, c = np.asarray(receivers, dtype=float)
    u, v = b - a, c - a
    return abs(float(u[0] * v[1] - u[1] * v[0])) / d_max(receivers) ** 2


def similarity(rng, dim: int):
    """A seeded rotation, uniform scale in [0.5, 2] and translation in [-1, 1]^dim."""
    if dim == 2:
        th = rng.uniform(0.0, 2.0 * math.pi)
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    else:
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        rot = q * np.sign(np.diag(r))
    scale = rng.uniform(0.5, 2.0)
    shift = rng.uniform(-1.0, 1.0, size=dim)
    return lambda pts: np.asarray(pts, dtype=float) @ rot.T * scale + shift


def kronecker(alpha: float, n: int) -> np.ndarray:
    """n evenly spread points of a Kronecker sequence in [0, 1)."""
    return (0.5 + alpha * np.arange(n)) % 1.0


def draw_source(rng, receivers, lo, hi) -> np.ndarray:
    """A source uniform in the box [lo, hi], at least 1e-2*d_max from every receiver.

    When the receivers span only a line, or a plane in space, the source also
    keeps 1e-2*d_max off it: there the fiber size changes (mirror pairs merge,
    rays of sources appear), and within the library's tolerance of that locus
    "the true source among `fiber` solutions" is not a well-posed check.
    """
    rec = np.asarray(receivers, dtype=float)
    dm = d_max(rec)
    span = rec[1:] - rec[0]
    rank = np.linalg.matrix_rank(span, tol=1e-9 * dm)
    while True:
        x = rng.uniform(lo, hi)
        if float(np.min(distances(rec, x))) < 1e-2 * dm:
            continue
        if rank < rec.shape[1]:
            basis = np.linalg.svd(span)[2][:rank]
            v = x - rec[0]
            if float(np.linalg.norm(v - basis.T @ (basis @ v))) < 1e-2 * dm:
                continue
        return x


def near(points, x, dm: float) -> bool:
    return any(float(np.linalg.norm(np.asarray(p, float) - x)) <= POS_RTOL * dm for p in points)


def remaps(points, receivers, T, rtol: float, dm: float) -> bool:
    tol = rtol * dm * (1.0 + REMAP_SLACK) + 1e-15 * dm
    return all(float(np.max(np.abs(distances(receivers, p) - T))) <= tol for p in points)


def load_module(name: str, path: Path):
    """Import a file of the checkout (a script or a test helper) as a module."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """One closed-loop stream of queries.

    ``queries`` is the seeded input pool; ``cycle(c)`` is the pool sent in
    cycle c, the same work on inputs that may differ from cycle to cycle;
    ``run(q)`` is the timed call into the program; ``check(q, out)`` returns
    ``(answers_judged, [failure_class, ...])``; ``points(q)`` is the number of
    queries ``q`` stands for in throughput (grid points for the census).
    """

    name = ""
    tail_cap = 99.0  # highest percentile offered for latency_tail_us

    def cycle(self, c: int) -> list:
        return self.queries

    def session(self):
        """Context of a measured run (helper processes a workload needs)."""
        return contextlib.nullcontext()

    def points(self, q) -> int:
        return 1

    def known(self, q, failure: str) -> bool:
        return False


class TdoaCensus(Workload):
    """``fiber_census.census`` calls, each over one config reused per grid point.

    Why: the ROADMAP's headline batch study, dominated by the lens walk of
    ``classify_tau`` on points in the regions U_i.  Going through the
    script's entry point lets a batch rewrite of the script show its gain.
    The pool holds ``rounds`` rounds of four shapes: the script's default
    right triangle, a scalene triangle, a thin one (2*area/d_max^2 = 1e-3)
    and a collinear triple.  The seed moves, turns and scales every shape but
    the right triangle; the shapes themselves are fixed, because the census
    grid is laid out in units of d_max and its cost is a property of the
    shape, so a seeded shape would make the figures depend on the seed.
    """

    name = "tdoa_census"
    tail_cap = 90.0
    resolution = 15
    extent = 1.2  # the script's default half-width in units of d_max
    rounds = 8
    oracle_points = 4  # brute-force fiber checks per config, after the timed phase

    def __init__(self, rg, root: Path, seed: int):
        self.rg = rg
        self.root = root
        rng = np.random.default_rng(seed)
        spread = kronecker(GOLDEN, self.rounds)
        scal_y = kronecker(SQRT2, self.rounds)
        self.queries = []
        for k in range(self.rounds):
            shapes = {
                "right": np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),  # untransformed
                "scalene": similarity(rng, 2)(
                    [[0.0, 0.0], [1.0, 0.0], [0.15 + 0.7 * spread[k], 0.4 + 0.5 * scal_y[k]]]),
                "thin": similarity(rng, 2)(
                    [[0.0, 0.0], [1.0, 0.0], [0.2 + 0.3 * spread[k], 1e-3]]),
                "collinear": similarity(rng, 2)(
                    [[0.0, 0.0], [1.0, 0.0], [0.2 + 0.25 * spread[k], 0.0]]),
            }
            for shape, pts in shapes.items():
                self.queries.append({"index": len(self.queries), "shape": shape,
                                     "receivers": pts.tolist()})
        self.configs = []

    def prepare(self):
        """Load the census script and validate every reused config once."""
        self.script = load_module("fiber_census", self.root / "scripts" / "fiber_census.py")
        self.configs = [self.rg.validate_config(q["receivers"]) for q in self.queries]

    def points(self, q) -> int:
        return self.resolution ** 2

    def run(self, q):
        return self.script.census(self.configs[q["index"]], self.extent, self.resolution)[0]

    def warm_up(self):
        self.script.census(self.configs[0], self.extent, 3)

    def check(self, q, rows):
        shape = q["shape"]
        if len(rows) != self.resolution ** 2:
            return self.resolution ** 2, [f"{shape}:rows"]
        failures = []
        if shape == "collinear":
            return len(rows), failures
        pts = q["receivers"]
        dm = d_max(pts)
        for t1, t2, _label, fiber, solutions in rows:
            if fiber not in ("1", "2"):
                continue
            sols = [np.array([float(v) for v in s.split(":")]) for s in solutions.split(";") if s]
            if len(sols) != int(fiber):
                failures.append(f"{shape}:count")
                continue
            for p in sols:
                d = distances(pts, p)
                if max(abs(d[0] - d[2] - t1), abs(d[1] - d[2] - t2)) > 1e-7 * dm:
                    failures.append(f"{shape}:remap")
                    break
        return len(rows), failures

    def known(self, q, failure: str) -> bool:
        return q["shape"] != "collinear" and quality(q["receivers"]) < THIN_QUALITY

    def oracle_sample(self):
        """Fiber sizes of sampled grid points against ``tests/oracles.py:brute_fiber``.

        Points near the a = 0 / b = 0 loci and the tangency points are skipped,
        as acceptance criterion 9 does, and only the right and scalene shapes
        are sampled: the sweep oracle cannot resolve the close roots of the
        thin triangle.
        """
        oracles = load_module("oracles", self.root / "tests" / "oracles.py")
        rng = np.random.default_rng(0)
        judged, failures = 0, []
        for q in self.queries[:4]:
            if q["shape"] not in ("right", "scalene"):
                continue
            cfg = self.configs[q["index"]]
            rows = self.run(q)
            dm = cfg.d_max
            tangency = list(self.rg.tangency_points(cfg).values())
            done = 0
            for idx in rng.permutation(len(rows)):
                if done == self.oracle_points:
                    break
                t1, t2, _label, fiber, _sols = rows[idx]
                tau = np.array([t1, t2])
                co = self.rg.tdoa_coeffs(cfg, tau)
                if abs(co.a) < 1e-3 * dm ** 4 or abs(co.b) < 1e-3 * dm ** 3:
                    continue
                if any(np.max(np.abs(tau - tp)) < 0.05 * dm for tp in tangency):
                    continue
                done += 1
                judged += 1
                if str(oracles.brute_fiber(cfg, tau)) != fiber:
                    failures.append(f"{q['shape']}:oracle")
        return judged, failures


class ToaStream(Workload):
    """Per-measurement TOA localization on fixed planar configurations.

    Why: ``classify3`` then ``invert3``/``invert3_collinear``, as the CLI's
    localize-toa does, so ``kummer`` and ``toa3`` do the work and ``tdoa``
    none; a change to the lens walk must show no effect here.
    """

    name = "toa_stream"
    pool = 4096
    mix = ("exact",) * 5 + ("noisy",) * 3 + ("infeasible",) * 2
    sigmas = (1e-4, 1e-3, 1e-2)  # noise in units of d_max
    # Cycle c >= 1 moves every source by a seeded step of this size (in units
    # of d_max): the measurements never repeat, while each source stays far
    # (1e-2*d_max) from every locus where the work or the answer changes.
    nudge = 1e-6

    def __init__(self, rg, root: Path, seed: int, pool: int):
        self.rg = rg
        self.seed = seed
        rng = np.random.default_rng(seed)
        shapes = [rng.uniform(0.0, 1.0, size=(3, 2)) for _ in range(6)]
        shapes.append(similarity(rng, 2)([[0.0, 0.0], [1.0, 0.0], [rng.uniform(0.2, 0.45), 0.0]]))
        self.shapes = [s.tolist() for s in shapes]
        self.queries = []
        for i in range(pool):
            c = i % len(self.shapes)
            pts = self.shapes[c]
            dm = d_max(pts)
            center = np.mean(pts, axis=0)
            x = draw_source(rng, pts, center - 1.5 * dm, center + 1.5 * dm)
            kind = self.mix[i % len(self.mix)]
            q = {"config": c, "kind": kind, "rtol": 1e-9}  # the library default
            if kind == "noisy":
                sigma = self.sigmas[(i // len(self.mix)) % len(self.sigmas)] * dm
                q["noise"] = rng.normal(0.0, sigma, size=3)
                q["rtol"] = 10.0 * sigma / dm  # as scripts/noise_sweep.py matches it
            elif kind == "infeasible":
                j, k = rng.permutation(3)[:2]
                q["break"] = (j, k, rng.uniform(1.05, 1.5))
            self.queries.append(self.measure(q, x))
        self.configs = []

    def measure(self, q, x) -> dict:
        """The query ``q`` with source ``x`` and the ranges it gives."""
        pts = self.shapes[q["config"]]
        T = distances(pts, x)
        if "noise" in q:
            T = T + q["noise"]
        if "break" in q:  # one range breaks a triangle inequality
            j, k, factor = q["break"]
            T[j] = T[k] + float(np.linalg.norm(np.subtract(pts[j], pts[k]))) * factor
        return dict(q, x=x, T=T)

    def cycle(self, c: int) -> list:
        if c == 0:
            return self.queries
        rng = np.random.default_rng([self.seed, c])
        steps = rng.normal(size=(len(self.queries), 2)) * self.nudge
        dms = [d_max(pts) for pts in self.shapes]
        return [self.measure(q, q["x"] + step * dms[q["config"]])
                for q, step in zip(self.queries, steps)]

    def prepare(self):
        self.configs = [self.rg.validate_config(pts) for pts in self.shapes]

    def warm_up(self):
        self.run(self.queries[0])

    def run(self, q):
        rg = self.rg
        cfg = self.configs[q["config"]]
        rep = rg.classify3(cfg, q["T"], rtol=q["rtol"])
        if rep.verdict != "Feasible":
            return rep.verdict, rep.fiber, ()
        invert = rg.invert3_collinear if cfg.is_collinear else rg.invert3
        return rep.verdict, rep.fiber, invert(cfg, q["T"], rtol=max(q["rtol"], 1e-7)).points

    def check(self, q, out):
        verdict, fiber, points = out
        pts = self.shapes[q["config"]]
        dm = d_max(pts)
        kind = q["kind"]
        if kind == "exact":
            ok = verdict == "Feasible" and len(points) == fiber and near(points, q["x"], dm)
        elif kind == "noisy":
            ok = remaps(points, pts, q["T"], max(q["rtol"], 1e-7), dm)
        else:
            ok = verdict == "Infeasible" and not points
        return 1, ([] if ok else [kind])

    def known(self, q, failure: str) -> bool:
        return failure == "noisy" and self.configs[q["config"]].is_collinear


class FreshMixed(Workload):
    """Queries that each carry their own raw receiver coordinates.

    Why: ``validate_config`` runs on every query and no config is reused, so
    caching config-only constants costs here where it helps elsewhere; it is
    the only workload for ``toa2`` and ``toa3d``, and it spans shapes from
    well-conditioned through thin (height down to 1e-6 of the baseline) to
    exactly collinear, keeping the thin-triangle ``invert_tdoa`` defect in view.
    """

    name = "fresh_mixed"
    pool = 1024
    heights = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    classes = ("wide_toa", "wide_tdoa", "thin_toa", "thin_tdoa", "collinear_toa",
               "collinear_tdoa", "pair2d_toa", "tri3d_toa", "pair3d_toa")

    def __init__(self, rg, root: Path, seed: int, pool: int):
        self.rg = rg
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.queries = []
        for i in range(pool):
            cls = self.classes[i % len(self.classes)]
            shape, measure = cls.rsplit("_", 1)
            tag = cls
            if shape == "wide":
                base = [[0.0, 0.0], [1.0, 0.0], [rng.uniform(0.1, 0.9), rng.uniform(0.5, 1.2)]]
            elif shape == "thin":
                h = self.heights[(i // len(self.classes)) % len(self.heights)]
                base = [[0.0, 0.0], [1.0, 0.0], [rng.uniform(0.1, 0.9), h]]
                tag = f"{cls}_h{h:.0e}"
            elif shape == "collinear":
                base = [[0.0, 0.0], [1.0, 0.0], [rng.uniform(0.15, 0.85), 0.0]]
            elif shape == "pair2d":
                base = [[0.0, 0.0], [1.0, 0.0]]
            elif shape == "tri3d":
                base = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                        [rng.uniform(0.1, 0.9), rng.uniform(0.3, 1.2), 0.0]]
            else:
                base = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
            dim = len(base[0])
            lo = np.array([-1.5, -2.0, -2.0][:dim])
            hi = np.array([2.5, 2.0, 2.0][:dim])
            x = draw_source(rng, base, lo, hi)
            q = {"tag": tag, "shape": shape, "measure": measure, "base": base, "source": x,
                 "thin": len(base) == 3 and dim == 2 and shape != "collinear"
                         and quality(base) < THIN_QUALITY}
            self.queries.append(self.place(q, similarity(rng, dim)))

    @staticmethod
    def place(q, move) -> dict:
        """The query ``q`` with its receivers and source moved by ``move``."""
        pts = move(q["base"])
        x = move(q["source"][None, :])[0]
        T = distances(pts, x)
        return dict(q, receivers=pts.tolist(), x=x, T=T,
                    tau=np.array([T[0] - T[2], T[1] - T[2]]) if q["measure"] == "tdoa" else None)

    def cycle(self, c: int) -> list:
        """Cycle c >= 1 moves every query by its own seeded similarity.

        The shape, source and work stay those of the pool, but no receiver
        coordinates or ranges are ever sent twice, so nothing keyed on the
        inputs can be reused.
        """
        if c == 0:
            return self.queries
        rng = np.random.default_rng([self.seed, c])
        return [self.place(q, similarity(rng, len(q["base"][0]))) for q in self.queries]

    def prepare(self):
        """Nothing is reused: every query validates its own receivers."""

    def warm_up(self):
        for q in self.queries[: len(self.classes)]:
            self.run(q)

    def run(self, q):
        rg = self.rg
        cfg = rg.validate_config(q["receivers"])
        T = q["T"]
        shape = q["shape"]
        if shape == "pair2d":
            cls = rg.classify2(cfg, T)
            return cls.fiber, (rg.invert2(cfg, T) if cls.verdict != "Outside" else ())
        if shape == "tri3d":
            rep = rg.classify3d_r3(cfg, T)
            return rep.fiber, (rg.invert3d_r3(cfg, T).points if rep.verdict != "Outside" else ())
        if shape == "pair3d":
            return 1, rg.invert3d_r2(cfg, T)
        if q["measure"] == "toa":
            rep = rg.classify3(cfg, T)
            if rep.verdict != "Feasible":
                return rep.fiber, ()
            invert = rg.invert3_collinear if cfg.is_collinear else rg.invert3
            return rep.fiber, invert(cfg, T, rtol=1e-7).points
        tau = q["tau"]
        region = rg.classify_tau(cfg, tau)
        if cfg.is_collinear:
            if region.lift is None or region.fiber in (0, math.inf):
                return region.fiber, ()
            return region.fiber, rg.invert3_collinear(cfg, region.lift, rtol=1e-7).points
        if region.fiber not in (1, 2):
            return region.fiber, ()
        return region.fiber, rg.invert_tdoa(cfg, tau).points

    def check(self, q, out):
        fiber, answer = out
        dm = d_max(q["receivers"])
        x = q["x"]
        if q["shape"] == "pair3d":
            circle = answer.circle
            ok = circle is not None and (
                abs(float(np.linalg.norm(x - circle.center)) - circle.radius) <= POS_RTOL * dm
                and abs(float((x - circle.center) @ circle.axis)) <= POS_RTOL * dm
            )
        else:
            ok = fiber in (1, 2) and len(answer) == fiber and near(answer, x, dm)
        return 1, ([] if ok else [q["tag"]])

    def known(self, q, failure: str) -> bool:
        return q["measure"] == "tdoa" and q["thin"]


class CliCold(Workload):
    """Fresh-process CLI runs over the golden cases of ``tests/test_cli.py``.

    Why: the only workload that measures CLI cold start, the import time of
    ``rangegeom`` and the ``cli`` module; stdout must match the golden bytes.
    Each query is one fresh process running ``cli_entry.py``, which does what
    ``python -m rangegeom.cli`` does and times ``import rangegeom`` and the
    command.
    """

    name = "cli_cold"
    tail_cap = 75.0
    peak_rss_kb = 0

    def __init__(self, rg, root: Path, seed: int, cases: dict):
        self.rg = rg
        self.root = root
        rng = np.random.default_rng(seed)
        names = sorted(cases)
        golden = {name: Path(cases[name]["golden"]).read_bytes() for name in names}
        self.queries = [{"index": i, "name": names[k], "argv": cases[names[k]]["argv"],
                         "golden": golden[names[k]]}
                        for i, k in enumerate(rng.permutation(len(names)))]
        self.timings = []  # (pool index, import, command, whole process seconds) of each run()
        self.config_files = sorted({a for q in self.queries for a in q["argv"] if a.endswith(".json")})

    def prepare(self):
        import rangegeom.cli  # noqa: F401  (called in-process by the traced run)

        for path in self.config_files:
            with open(path, encoding="utf-8") as fh:
                self.rg.validate_config(json.load(fh)["receivers"])

    def warm_up(self):
        self.run_in_process(self.queries[0])

    @contextlib.contextmanager
    def session(self):
        """Start ``launcher.py``, which runs the CLI processes, and stop it after."""
        self.launcher = subprocess.Popen([sys.executable, str(Path(__file__).with_name("launcher.py"))],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            yield
        finally:
            self.launcher.stdin.close()
            self.launcher.stdout.close()
            self.launcher.wait()

    def run(self, q):
        """One fresh CLI process; its peak memory is kept in ``peak_rss_kb``, its times in ``timings``."""
        self.launcher.stdin.write(json.dumps([q["argv"], str(self.root)]).encode() + b"\n")
        self.launcher.stdin.flush()
        code, rss_kb, size, process_s, import_s, command_s = json.loads(self.launcher.stdout.readline())
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        self.timings.append((q["index"], import_s, command_s, process_s))
        return code, self.launcher.stdout.read(size)

    def fastest(self) -> list:
        """Each pool index's latency: the run's fastest ``import rangegeom`` plus the case's fastest command.

        The import is the same work in every process, so it is the fastest
        of all the run's ~130 processes; the command is the fastest of the
        case's own ~8 repeats.  Interpreter start, the numpy import and exit
        are not counted: no change to ``rangegeom`` moves them, and they are
        the part of a process start that drifts most with the machine.
        """
        timed = [(k, i, c) for k, i, c, _ in self.timings if not (math.isnan(i) or math.isnan(c))]
        imported = min((i for _, i, _ in timed), default=math.inf)
        best = [math.inf] * len(self.queries)
        for k, _, c in timed:
            best[k] = min(best[k], c)
        return [imported + b for b in best]

    def run_in_process(self, q):
        """One in-process ``rangegeom.cli.main`` call, stdout captured."""
        import io

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.rg.cli.main(list(q["argv"]))
        return code, buf.getvalue().encode("utf-8")

    def check(self, q, out):
        code, stdout = out
        return 1, ([] if code == 0 and stdout == q["golden"] else [q["name"]])


def build(name: str, rg, root: Path, seed: int, cases=None, pool: int = None) -> Workload:
    """The workload `name` for `seed`; `pool` truncates a seeded pool to its first queries."""
    if name == "cli_cold":
        return CliCold(rg, root, seed, cases)
    if name == "tdoa_census":
        return TdoaCensus(rg, root, seed)
    wl = {"toa_stream": ToaStream, "fresh_mixed": FreshMixed}[name]
    return wl(rg, root, seed, pool or wl.pool)


WORKLOADS = ("tdoa_census", "toa_stream", "fresh_mixed", "cli_cold")
