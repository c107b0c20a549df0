"""Command-line interface: golden outputs, determinism, exit codes.

Regenerate the golden files after an intentional output change with

    python tests/test_cli.py
"""
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import rangegeom as rg
from rangegeom.cli import _jsonable
from rangegeom.cli import main as cli_main

GOLDEN = Path(__file__).resolve().parent / "golden"
RIGHT = str(GOLDEN / "right.json")
COLLINEAR = str(GOLDEN / "collinear.json")
PAIR = str(GOLDEN / "pair.json")

# fmt: off
CASES = {
    "localize_toa_feasible": [
        "localize-toa", "--config", RIGHT,
        "--toa", "0.5,0.8062257748298549,0.6708203932499369"],
    "localize_toa_infeasible": [
        "localize-toa", "--config", RIGHT, "--toa", "9,9,9"],
    "localize_toa_pair": [
        "localize-toa", "--config", PAIR, "--toa", "0.5,0.8062257748298549"],
    "localize_tdoa_interior": [
        "localize-tdoa", "--config", RIGHT,
        "--tau=-0.17082039324993692,0.1354053815799181"],
    "localize_tdoa_collinear": [
        "localize-tdoa", "--config", COLLINEAR,
        "--tau=0.05278640450004202,0.35901217932989693"],
    "localize_tdoa_vertex_ray": [
        "localize-tdoa", "--config", COLLINEAR, "--tau=-0.5,0.5"],
    "classify_toa_exterior": [
        "classify", "--config", RIGHT, "--toa", "1,1,1"],
    "classify_tdoa_origin": [
        "classify", "--config", RIGHT, "--tdoa", "0,0"],
    "classify_toa_collinear": [
        "classify", "--config", COLLINEAR, "--toa", "0.5,0.8062257748298549,0.4472135954999579"],
    "features_right": ["features", "--config", RIGHT],
    "features_collinear": ["features", "--config", COLLINEAR],
    "params_from_config": ["params", "--config", RIGHT],
    "params_from_point": ["params", "--point", "0.7071067811865476,0.0,1.0"],
    "simulate_seeded": [
        "simulate", "--config", RIGHT, "--source", "0.3,0.4",
        "--sigma", "0.05", "--seed", "7", "-n", "3"],
    "surface_sample_grid": [
        "surface-sample", "--config", RIGHT, "--range=-1:2", "--resolution", "8"],
}
# fmt: on

_CSV_CASES = {"surface_sample_grid"}

# Branches the goldens above miss, with their exit codes, pinned in tests/golden/branches/.
# They stay out of CASES, which the benchmark's CLI cold-start workload replays.
# fmt: off
BRANCHES = {
    "classify_toa_pair": (0, [
        "classify", "--config", PAIR, "--toa", "0.5,0.8062257748298549"]),
    "localize_toa_pair_outside": (0, [
        "localize-toa", "--config", PAIR, "--toa", "3,0.5"]),
    "classify_tdoa_collinear_lift": (0, [
        "classify", "--config", COLLINEAR, "--tdoa=0.05278640450004202,0.35901217932989693"]),
    "localize_tdoa_outside_im": (0, [
        "localize-tdoa", "--config", RIGHT, "--tau=0.9,-0.9"]),
    "simulate_tdoa": (0, [
        "simulate", "--config", RIGHT, "--source", "0.3,0.4", "--sigma", "0.05", "--seed", "7",
        "-n", "2", "--kind", "tdoa"]),
    "params_point_default_scale": (0, ["params", "--point", "0.5,0.25"]),
    "params_collinear": (0, ["params", "--config", COLLINEAR]),
    "params_point_one_value": (3, ["params", "--point", "0.5"]),
    "params_point_out_of_range": (3, ["params", "--point", "1.5,0.2"]),
}
# fmt: on


def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


def _golden_path(name):
    return GOLDEN / (name + (".csv" if name in _CSV_CASES else ".json"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    code1, out1 = _run(CASES[name])
    code2, out2 = _run(CASES[name])
    assert code1 == 0 and code2 == 0
    assert out1 == out2, "same invocation must produce identical bytes"
    assert out1 == _golden_path(name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["classify_toa_exterior", "classify_toa_collinear"])
def test_classify_toa_evaluates_the_quartic_once(monkeypatch, name):
    """classify --toa prints the quartic that classify3's gate computed, so the quartic is
    evaluated once on general receivers and never on collinear ones; the bytes are golden."""
    real, calls = rg.kummer._quartic_value, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rg.kummer, "_quartic_value", counted)
    code, out = _run(CASES[name])
    assert code == 0 and out == _golden_path(name).read_text(encoding="utf-8")
    assert len(calls) == (0 if "collinear" in name else 1)


@pytest.mark.parametrize("name, coeff_calls, inversions", [
    ("localize_tdoa_interior", 1, 1), ("localize_tdoa_outside_im", 1, 0),
    ("localize_tdoa_collinear", 0, 0), ("localize_tdoa_vertex_ray", 0, 0)])
def test_localize_tdoa_builds_the_null_cone_coefficients_once(monkeypatch, name, coeff_calls,
                                                              inversions):
    """localize-tdoa classifies and inverts from one set of null-cone coefficients: one
    _coeff_rows call on general receivers, none on collinear ones.  It inverts only a tau of
    fiber 1 or 2, not the OutsideIm one of the branch golden.  The bytes are golden."""
    calls = {"_coeff_rows": [], "_invert_rows": []}
    for kernel, real in [(kernel, getattr(rg.tdoa, kernel)) for kernel in calls]:
        def counted(*args, real=real, kernel=kernel):
            calls[kernel].append(args)
            return real(*args)
        monkeypatch.setattr(rg.tdoa, kernel, counted)
    if name in CASES:
        code, out = _run(CASES[name])
        golden = _golden_path(name)
    else:
        code, out = _run(BRANCHES[name][1])
        golden = GOLDEN / "branches" / f"{name}.json"
    assert code == 0 and out == golden.read_text(encoding="utf-8")
    assert (len(calls["_coeff_rows"]), len(calls["_invert_rows"])) == (coeff_calls, inversions)


@pytest.mark.parametrize("name", sorted(BRANCHES))
def test_branch_output(name):
    code, argv = BRANCHES[name]
    assert _run(argv) == (code, (GOLDEN / "branches" / f"{name}.json").read_text(encoding="utf-8"))


def test_golden_values_cross_checked(right):
    # goldens are regression anchors; re-derive their key numbers here
    payload = json.loads(_run(CASES["localize_toa_feasible"])[1])
    assert payload["verdict"] == "Feasible" and payload["fiber"] == 1
    assert np.max(np.abs(np.array(payload["solutions"][0]) - [0.3, 0.4])) <= 1e-7

    payload = json.loads(_run(CASES["classify_toa_exterior"])[1])
    assert payload["quartic"] == -2.0
    assert payload["verdict"] == "Infeasible"

    payload = json.loads(_run(CASES["localize_tdoa_interior"])[1])
    assert payload["label"] == "EMinus" and payload["fiber"] == 1
    assert np.max(np.abs(np.array(payload["solutions"][0]) - [0.3, 0.4])) <= 1e-7

    payload = json.loads(_run(CASES["params_from_config"])[1])
    assert abs(payload["cayley_residual"]) <= 1e-12
    a, b, c = payload["abc"]
    assert abs(a - math.sqrt(0.5)) <= 1e-12 and abs(b + math.sqrt(0.5)) <= 1e-12 and abs(c) <= 1e-12

    payload = json.loads(_run(CASES["simulate_seeded"])[1])
    clean = rg.forward3(right, (0.3, 0.4))
    assert np.max(np.abs(np.array(payload["clean"]) - clean)) == 0.0
    assert np.array(payload["samples"]).shape == (3, 3)

    payload = json.loads(_run(CASES["localize_tdoa_collinear"])[1])
    assert payload["label"] == "CollinearInterior" and payload["fiber"] == 2
    pts = np.array(payload["solutions"])
    assert pts.shape == (2, 2)
    assert np.min(np.max(np.abs(pts - [0.3, 0.4]), axis=1)) <= 1e-6


def test_jsonable_pins_containers_scalars_and_non_finite_floats():
    """Keys become strings, tuples and arrays lists, NumPy scalars Python ones, and the
    non-finite floats the strings "nan", "inf" and "-inf"; None passes through."""
    obj = {
        1: (np.float64(0.5), np.int64(-3), np.bool_(True), None),
        (2, 3): {"floats": np.array([[1.5, -0.0], [np.inf, np.nan]]),
                 "ints": np.array([1, -2], dtype=np.int64),
                 "bools": np.array([True, False])},
        "non_finite": [math.nan, math.inf, -math.inf, np.float64(-np.inf)],
    }
    assert json.dumps(_jsonable(obj), sort_keys=True) == (
        '{"(2, 3)": {"bools": [true, false], "floats": [[1.5, -0.0], ["inf", "nan"]], '
        '"ints": [1, -2]}, "1": [0.5, -3, true, null], '
        '"non_finite": ["nan", "inf", "-inf", "-inf"]}')


def test_fiber_inf_serialized_as_string():
    payload = json.loads(_run(CASES["localize_tdoa_vertex_ray"])[1])
    assert payload["fiber"] == "inf"
    assert payload["label"] == "VertexRay"
    assert payload["solutions"] == []


def test_surface_sample_csv_content(right):
    text = _golden_path("surface_sample_grid").read_text(encoding="utf-8")
    lines = text.strip().split("\n")
    assert lines[0] == "x,y,T1,T2,T3,K"
    assert len(lines) == 1 + 8 * 8
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    pts = rows[:, :2]
    T = rg.forward3(right, pts)
    K = rg.gaussian_curvature(right, pts)
    assert np.max(np.abs(rows[:, 2:5] - T)) <= 1e-12
    assert np.max(np.abs(rows[:, 5] - K)) <= 1e-12
    axis = np.linspace(-1.0, 2.0, 8)
    assert np.allclose(np.unique(pts[:, 0]), axis)


def test_surface_sample_output_file(tmp_path):
    out = tmp_path / "grid.csv"
    argv = CASES["surface_sample_grid"] + ["--output", str(out)]
    code, text = _run(argv)
    assert code == 0
    assert text == ""
    assert out.read_text(encoding="utf-8") == _golden_path("surface_sample_grid").read_text(
        encoding="utf-8"
    )


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rangegeom.cli", "classify", "--config", RIGHT, "--toa", "1,1,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["quartic"] == -2.0


@pytest.mark.parametrize("name", ["localize_toa_feasible", "surface_sample_grid"])
def test_thread_count_determinism(name):
    outs = []
    for threads in ("1", "4"):
        env = dict(os.environ)
        env.update(
            OMP_NUM_THREADS=threads,
            OPENBLAS_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        proc = subprocess.run(
            [sys.executable, "-m", "rangegeom.cli", *CASES[name]],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0] == _golden_path(name).read_text(encoding="utf-8")


def test_exit_code_usage_errors():
    assert _run(["no-such-command"])[0] == 2
    assert _run(["localize-toa", "--config", RIGHT])[0] == 2  # missing --toa
    assert _run(["surface-sample", "--config", RIGHT, "--range=-1:2", "--resolution", "1"])[0] == 2


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf", "x"])
@pytest.mark.parametrize("name", ["localize_toa_feasible", "localize_tdoa_interior",
                                  "classify_toa_exterior", "classify_tdoa_origin"])
def test_exit_code_bad_tolerance(name, tol):
    """--tol must be a finite float >= 0: -1, nan and inf would give wrong verdicts, exit 0."""
    code, out = _run(CASES[name] + [f"--tol={tol}"])
    assert code == 2 and out == ""


def test_exit_code_negative_seed():
    code, out = _run(["simulate", "--config", RIGHT, "--source", "0.3,0.4", "--sigma", "0.05",
                      "--seed=-1"])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "InvalidParam"


def test_exit_code_config_errors(tmp_path):
    code, out = _run(["localize-toa", "--config", str(tmp_path / "nope.json"), "--toa", "1,1,1"])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "InvalidParam"

    code, out = _run(["localize-toa", "--config", RIGHT, "--toa", "1,1"])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "DimensionMismatch"

    code, out = _run(["surface-sample", "--config", COLLINEAR, "--range=-1:2", "--resolution", "8"])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "DegenerateConfig"

    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    code, out = _run(["features", "--config", str(bad)])
    assert code == 3

    dup = tmp_path / "dup.json"
    dup.write_text('{"receivers": [[0,0],[0,0],[1,0]]}', encoding="utf-8")
    code, out = _run(["features", "--config", str(dup)])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "DuplicateReceiver"


@pytest.mark.parametrize("argv", [
    ["localize-toa", "--config", RIGHT, "--toa", "nan,1,1"],
    ["classify", "--config", PAIR, "--toa", "1,inf"],
    ["localize-tdoa", "--config", RIGHT, "--tau=nan,0"],
    ["classify", "--config", COLLINEAR, "--tdoa=1e155,-1e155"],  # finite, its square is not
    ["classify", "--config", RIGHT, "--toa", "1e77,1e77,1e77"],  # finite, its quartic is not
    ["classify", "--config", RIGHT, "--tdoa=1e78,-1e78"],  # finite, its null-cone quadratic is not
    ["localize-tdoa", "--config", RIGHT, "--tau=1e78,-1e78"],
])
def test_exit_code_non_finite_measurement(argv):
    code, out = _run(argv)
    assert code == 3
    assert json.loads(out)["error"]["type"] == "InvalidParam"


# the golden cases the scale test replays on receivers and measurements times 2^k
_SCALED_CASES = ("localize_toa_feasible", "localize_tdoa_interior", "classify_toa_exterior",
                 "classify_tdoa_origin", "localize_tdoa_collinear", "localize_tdoa_vertex_ray",
                 "classify_toa_collinear", "classify_tdoa_collinear_lift")
# the length degree of the numbers under a key: points, lifts and facet slacks are lengths,
# the Gamma slacks and c areas, b and a their cubes and fourth powers, the quartic a sixth
# power; residual and normalized_residual are scale-free
_DEGREES = {"solutions": 1, "lift": 1, "residual": 0, "normalized_residual": 0, "quartic": 6,
            "a": 4, "b": 3, "c": 2, "Gamma1": 2, "Gamma2": 2, "Gamma3": 2}


def _times(value, k: int, degree: int = 1):
    """A golden payload's numbers times 2^(degree k), correctly rounded (inf past the float
    range, as the CLI prints it); ints, strings and booleans as they are."""
    if isinstance(value, dict):
        return {key: _times(v, k, _DEGREES.get(key, degree)) for key, v in value.items()}
    if isinstance(value, list):
        return [_times(v, k, degree) for v in value]
    if not isinstance(value, float):
        return value
    try:
        return _jsonable(float(Fraction(value) * Fraction(2) ** (degree * k)))
    except OverflowError:
        return _jsonable(math.copysign(math.inf, value))


@pytest.mark.parametrize("k", [-300, 300])
@pytest.mark.parametrize("name", _SCALED_CASES)
def test_golden_cases_at_scale(tmp_path, name, k):
    """The golden TOA and TDOA cases on right.json and collinear.json receivers, and their
    measurements, times 2^k: exit 0, the golden points, lifts and slacks times 2^k exactly,
    the raw coefficients correctly rounded (the quartic reads "inf" at 2^300), and the same
    scale-free residuals, verdicts, labels and fibers.  At 2^-300 the null-cone quadratic's
    d_max^4 underflowed, at 2^300 it overflowed, and both exited 3."""
    golden = json.loads((GOLDEN / "branches" / (name + ".json")
                         if name in BRANCHES else _golden_path(name)).read_text(encoding="utf-8"))
    argv = list(BRANCHES[name][1] if name in BRANCHES else CASES[name])
    config = Path(argv[argv.index("--config") + 1])
    receivers = json.loads(config.read_text(encoding="utf-8"))["receivers"]
    scaled = tmp_path / config.name
    scaled.write_text(json.dumps({"receivers": _times(receivers, k)}), encoding="utf-8")
    argv[argv.index("--config") + 1] = str(scaled)
    for i, arg in enumerate(argv):
        flag, sep, values = arg.partition("=")
        if flag in ("--toa", "--tau", "--tdoa"):
            if not sep:
                flag, values = None, argv[i + 1]
                i += 1
            values = ",".join(repr(_times(float(v), k)) for v in values.split(","))
            argv[i] = values if flag is None else f"{flag}={values}"
    code, out = _run(argv)
    assert code == 0, out
    assert json.loads(out) == _times(golden, k)


def test_infeasible_is_not_an_error():
    code, out = _run(CASES["localize_toa_infeasible"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Infeasible"
    assert payload["solutions"] == []


def test_localize_toa_collinear_boundary_band():
    """Exact ranges of a source 1e-5 off the receiver line: the single on-line point."""
    code, out = _run(["localize-toa", "--config", COLLINEAR,
                      "--toa", "0.5000000001,0.5000000001,1e-05"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Feasible" and payload["fiber"] == 1
    assert payload["solutions"] == [[0.5, 0.0]]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case_name, case_argv in CASES.items():
        exit_code, text = _run(case_argv)
        if exit_code != 0:
            raise SystemExit(f"{case_name}: exit {exit_code}")
        _golden_path(case_name).write_text(text, encoding="utf-8")
    (GOLDEN / "branches").mkdir(exist_ok=True)
    for case_name, (expected, case_argv) in BRANCHES.items():
        exit_code, text = _run(case_argv)
        if exit_code != expected:
            raise SystemExit(f"{case_name}: exit {exit_code}, expected {expected}")
        (GOLDEN / "branches" / f"{case_name}.json").write_text(text, encoding="utf-8")
    print(f"wrote {len(CASES) + len(BRANCHES)} golden files to {GOLDEN}")

