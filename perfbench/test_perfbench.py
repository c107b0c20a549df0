"""Tests of the benchmark itself: python -m pytest perfbench -q (from the checkout root)."""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import rangegeom as rg  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _build(name, seed):
    cases = run.cli_cases() if name == "cli_cold" else None
    return workloads.build(name, rg, ROOT, seed, cases)


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    assert _same(_build(name, 7).queries, _build(name, 7).queries)
    assert _same(_build(name, 7).cycle(3), _build(name, 7).cycle(3))
    if name != "cli_cold":
        assert not _same(_build(name, 7).queries, _build(name, 8).queries)


@pytest.mark.parametrize("name", ["toa_stream", "fresh_mixed"])
def test_cycles_never_repeat_an_input(name):
    wl = _build(name, 7)
    key = "T" if name == "toa_stream" else "receivers"
    seen = set()
    for c in range(3):
        for q in wl.cycle(c):
            seen.add(np.asarray(q[key], dtype=float).tobytes())
    assert len(seen) == 3 * len(wl.queries)


@pytest.mark.parametrize("name", ["toa_stream", "fresh_mixed"])
def test_later_cycles_do_the_same_work(name):
    """A moved copy of a query gets the same verdict and passes the same check."""
    wl = _build(name, 7)
    wl.prepare()
    for q0, q1 in zip(wl.cycle(0)[:90], wl.cycle(5)[:90]):
        out0, out1 = wl.run(q0), wl.run(q1)
        assert out0[0] == out1[0]
        assert wl.check(q0, out0)[1] == wl.check(q1, out1)[1] or q0.get("thin")


class _Fake:
    """A workload stand-in with n distinct queries of known cost."""

    def __init__(self, n, cap):
        self.queries = list(range(n))
        self.tail_cap = cap

    def points(self, q):
        return 1


@pytest.mark.parametrize("n,cycles,cap", [(15, 3, 75.0), (15, 5, 75.0), (32, 3, 90.0),
                                          (1024, 1, 99.0), (4096, 20, 99.0), (40, 1, 99.0)])
def test_tail_has_ten_executions_beyond(n, cycles, cap):
    rng = np.random.default_rng(n)
    best = list(rng.lognormal(size=n))
    loop = {"best": best, "queries": n * cycles + n // 2}
    stats = worker.latency_stats(_Fake(n, cap), loop)
    tail = stats["latency_tail_us"] / 1e6
    beyond = cycles * sum(1 for b in best if b > tail)
    assert stats["beyond_tail"] == beyond >= worker.TAIL_BEYOND
    assert stats["tail_percentile"] <= cap
    assert stats["samples"] == n * cycles


def _attributes():
    snap = worker.snapshot(rg)
    assert snap, "no program module found"
    return snap


def test_wrappers_removed_leave_every_attribute_original():
    before = _attributes()
    tr = tracer.Tracer(rg)
    tr.install()
    try:
        assert rg.classify_tau is not before[(rg, "classify_tau")]
        assert rg.tdoa.tdoa_coeffs is not before[(rg.tdoa, "tdoa_coeffs")]
        assert rg.tdoa.q3_membership is not before[(rg.tdoa, "q3_membership")]
        right = rg.validate_config([[0, 0], [1, 0], [0, 1]])
        # a point in the lens region U_1 walks many tdoa_coeffs steps
        region = rg.classify_tau(right, (-0.87403205, 0.0))
        assert region.label.startswith("U_")
        rg.classify3(right, rg.forward3(right, [0.3, 0.4]))
    finally:
        tr.remove()
    assert worker.attributes_restored(before)
    assert _attributes().keys() == before.keys()
    assert tr.calls["tdoa.classify_tau"] == 1
    assert tr.coeffs_under_classify > 10
    assert tr.calls["kummer.q3_membership"] >= 1  # reached through classify3's call-time import
    assert tr.calls["config.distances"] >= 1
    assert tr.groups["tdoa.classify_tau.U"] == 1
    spans = len(tr.span_start)
    assert spans == sum(tr.calls.values())
    assert all(tr.span_end[i] >= tr.span_start[i] for i in range(spans))


def test_planted_wrong_answer_counts_as_failure(monkeypatch):
    wl = _build("toa_stream", 3)
    wl.prepare()
    real = rg.invert3

    def shifted(config, T, rtol=1e-9):
        sol = real(config, T, rtol=rtol)
        return type(sol)(points=tuple(p + 0.5 for p in sol.points))

    calls = {"n": 0}
    real_classify = rg.classify3

    def sometimes_raises(config, T, rtol=1e-9):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("planted")
        return real_classify(config, T, rtol=rtol)

    monkeypatch.setattr(rg, "invert3", shifted)
    monkeypatch.setattr(rg, "classify3", sometimes_raises)
    stats = worker.tally(worker.closed_loop(wl, wl.run, 0.0, count=50))
    assert stats["attempted"] == 50
    assert stats["failures"].get("exception:RuntimeError") == 1
    assert stats["failures"].get("exact", 0) > 0
    assert stats["unexpected"]
    assert 0 < stats["failed"] / stats["attempted"] < 1


def test_fixed_tally_does_not_depend_on_how_far_the_loop_ran(monkeypatch):
    wl = workloads.build("toa_stream", rg, ROOT, 5, pool=40)
    wl.prepare()
    real = rg.invert3

    def shifted(config, T, rtol=1e-9):  # every other exact answer is wrong
        sol = real(config, T, rtol=rtol)
        shift = 0.5 * (int(T[0] * 1e6) % 2)
        return type(sol)(points=tuple(p + shift for p in sol.points))

    monkeypatch.setattr(rg, "invert3", shifted)
    short, long = (worker.fixed_tally(wl, wl.run, worker.closed_loop(wl, wl.run, 0.0, count=c))
                   for c in (7, 95))
    assert short == long
    assert short["attempted"] == 40
    assert 0 < short["failed"] < 40


def test_missing_cli_metric_is_an_error_only_on_cli_cold():
    spec = [{"name": "cli.main.us_per_call", "unit": "us", "better": "lower"}]
    assert run.metrics_for(spec, {}, "toa_stream")["cli.main.us_per_call"]["value"] == 0.0
    with pytest.raises(KeyError):
        run.metrics_for(spec, {}, "cli_cold")
