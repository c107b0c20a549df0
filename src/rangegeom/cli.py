"""Command-line interface for range and range-difference geometry.

Subcommands
-----------
localize-toa    invert a range vector against a receiver configuration
localize-tdoa   invert a range-difference pair
classify        feasibility / region classification without inversion
surface-sample  grid sample of ranges and Gaussian curvature (CSV)
features        nodes, tropes, arcs, facets, hull components of a configuration
params          shape parameters of a triangle, or a triangle from parameters
simulate        noisy measurement batches

Output is JSON (sorted keys) on stdout, CSV for surface-sample.  Exit codes:
0 success (infeasible inputs are classified, not errors), 2 usage errors,
3 configuration errors (bad receiver file, degenerate layout, bad parameters,
non-finite measurements),
4 numerical/domain errors.

``main`` alone loads the --config file, calls the command's handler, prints
the payload it returns and maps exceptions to exit codes.  Each handler,
``(args, config) -> payload`` (None for surface-sample, which writes its CSV),
imports the modules it runs, so a process loads (and, without a bytecode
cache, compiles) only what its command needs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import asdict

import numpy as np

from . import errors
from .config import (_RTOL, _VERIFY_RTOL, SensorConfig, _measurement, _require_planar_triple,
                     validate_config)

_CONFIG_ERRORS = (
    errors.DuplicateReceiver,
    errors.DimensionMismatch,
    errors.DegenerateConfig,
    errors.InvalidParam,
)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else "inf" if obj > 0 else "-inf"
    return obj


def _emit(payload) -> None:
    print(json.dumps(_jsonable(payload), indent=2, sort_keys=True))


def _fail(exc: BaseException) -> None:
    _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})


def _floats(text: str) -> np.ndarray:
    try:
        vals = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc
    if not vals:
        raise argparse.ArgumentTypeError("expected at least one value")
    return np.array(vals)


def _range_pair(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected lo:hi floats, got {text!r}") from exc
    if not hi > lo:
        raise argparse.ArgumentTypeError("range needs hi > lo")
    return lo, hi


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a float, got {text!r}") from exc
    if not (math.isfinite(tol) and tol >= 0.0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return tol


def _load_config(path: str) -> SensorConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise errors.InvalidParam(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise errors.InvalidParam(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "receivers" not in data:
        raise errors.InvalidParam(
            f"config file {path!r} must be a JSON object with a 'receivers' array"
        )
    return validate_config(data["receivers"], dimension=data.get("dimension"))


# ---------------------------------------------------------------------------
# subcommands: (args, config) -> the payload main prints

def _solutions(points) -> list:
    return [list(map(float, p)) for p in points]


def _q2_fields(cls) -> dict:
    """The fields of a two-receiver classification that localize-toa and classify print."""
    return {
        "verdict": cls.verdict,
        "fiber": cls.fiber,
        "residuals": cls.residuals,
        "active": list(cls.active),
    }


def _cmd_localize_toa(args, config) -> dict:
    if config.n == 2:
        from .toa2 import classify2, invert2

        cls = classify2(config, args.toa, rtol=args.tol)
        points = () if cls.verdict == "Outside" else invert2(config, args.toa, rtol=args.tol)
        return {**_q2_fields(cls), "solutions": _solutions(points)}
    from .toa3 import classify3, invert3, invert3_collinear

    rep = classify3(config, args.toa, rtol=args.tol)
    points = ()
    if rep.verdict == "Feasible":
        invert = invert3_collinear if config.is_collinear else invert3
        points = invert(config, args.toa, rtol=max(args.tol, _VERIFY_RTOL)).points
    return {
        "verdict": rep.verdict,
        "fiber": rep.fiber,
        "reason": rep.reason,
        "residual": rep.quartic_or_quadric_residual,
        "solutions": _solutions(points),
    }


def _cmd_localize_tdoa(args, config) -> dict:
    from .tdoa import classify_invert_tau
    from .toa3 import invert3_collinear

    # classify_tau's checks in its order, so a one-row batch fails with its messages
    _require_planar_triple(config)
    tau = _measurement(args.tau, 2, "range differences")
    regions, inverted = classify_invert_tau(config, [tau], rtol=args.tol)
    region = regions[0]
    points = ()
    if config.is_collinear:
        if region.lift is not None and region.fiber not in (0, math.inf):
            points = invert3_collinear(config, region.lift, rtol=_VERIFY_RTOL).points
    elif region.fiber in (1, 2):
        points = inverted[0].points
    return {
        "label": region.label,
        "ids": list(region.ids),
        "fiber": region.fiber,
        "solutions": _solutions(points),
        "lift": region.lift,
    }


def _cmd_classify(args, config) -> dict:
    if args.tdoa is not None:
        from .tdoa import classify_tau

        region = classify_tau(config, args.tdoa, rtol=args.tol)
        payload = {
            "kind": "tdoa",
            "label": region.label,
            "ids": list(region.ids),
            "fiber": region.fiber,
            "residuals": region.residuals,
            "lift": region.lift,
        }
        if region.coeffs is not None:
            payload["coeffs"] = {
                "a": region.coeffs.a,
                "b": region.coeffs.b,
                "c": region.coeffs.c,
            }
        return payload
    if config.n == 2:
        from .toa2 import classify2

        return {"kind": "toa-2", **_q2_fields(classify2(config, args.toa, rtol=args.tol))}
    from .toa3 import classify3

    rep = classify3(config, args.toa, rtol=args.tol)
    payload = {
        "kind": "toa-3-collinear" if config.is_collinear else "toa-3",
        "verdict": rep.verdict,
        "fiber": rep.fiber,
        "reason": rep.reason,
        "in_octant": rep.in_octant,
        "normalized_residual": rep.quartic_or_quadric_residual,
        "q3": {
            "verdict": rep.q3.verdict,
            "active": list(rep.q3.active),
            "residuals": rep.q3.residuals,
        },
    }
    if not config.is_collinear:
        payload["quartic"] = rep.quartic
    return payload


def _cmd_surface_sample(args, config) -> None:
    from .surface import gaussian_curvature

    axis = np.linspace(*args.range, args.resolution)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
    rows = np.column_stack([pts, config.distances(pts), gaussian_curvature(config, pts)])
    with (nullcontext(sys.stdout) if args.output is None
          else open(args.output, "w", encoding="utf-8")) as out:
        np.savetxt(out, rows, fmt="%.17g", delimiter=",", header="x,y,T1,T2,T3,K", comments="")


def _cmd_features(args, config) -> dict:
    if config.is_collinear:
        from .kummer import Q3_FACETS_COLLINEAR

        return {
            "kind": "collinear",
            "q3_facets": list(Q3_FACETS_COLLINEAR),
            "arc_labels": [],
            "hull_components": [],
            "nodes": None,
            "tropes": None,
        }
    from .kummer import Q3_FACETS
    from .surface import ARC_LABELS, HULL_COMPONENTS, nodes_and_tropes

    nt = nodes_and_tropes(config)
    return {
        "kind": "general",
        "nodes": {
            n.label: {
                "homogeneous": n.homogeneous,
                "affine": n.affine,
                "node_kind": n.kind,
                "receiver": n.receiver,
            }
            for n in nt.nodes
        },
        "tropes": {
            t.node_label: {
                "arc": t.label,
                "homogeneous": t.homogeneous,
                "affine_plane": t.affine,
            }
            for t in nt.tropes
        },
        "arc_labels": list(ARC_LABELS),
        "q3_facets": list(Q3_FACETS),
        "hull_components": list(HULL_COMPONENTS),
    }


def _cmd_params(args, config) -> dict:
    from .params import ParamPoint, abc_from_config, cayley_residual, config_from_param, param_from_config

    if args.point is not None:
        if len(args.point) not in (2, 3):
            raise errors.InvalidParam("--point expects a,c[,scale]")
        config = config_from_param(ParamPoint(*args.point.tolist()))
    a, b, c = abc_from_config(config)
    payload = {
        "abc": [a, b, c],
        "cayley_residual": cayley_residual(a, b, c),
    }
    if args.point is not None:
        payload["receivers"] = [list(map(float, config.m(i))) for i in (1, 2, 3)]
    else:
        payload["param"] = None if config.is_collinear else asdict(param_from_config(config))
    return payload


def _cmd_simulate(args, config) -> dict:
    from .sim import NoiseSpec, gen_noisy_tdoa, gen_noisy_toa

    generate = gen_noisy_toa if args.kind == "toa" else gen_noisy_tdoa
    spec = NoiseSpec(sigma=args.sigma, bias=args.bias, seed=args.seed)
    batch = generate(config, args.source, spec, n=args.n)
    return {
        "samples": batch.samples,
        "clean": batch.clean,
        "metadata": batch.metadata,
    }


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rangegeom",
        description="Deterministic geometry of range and range-difference localization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="JSON file with a 'receivers' array")

    p = sub.add_parser("localize-toa", parents=[config], help="invert a range vector")
    p.add_argument("--toa", required=True, type=_floats, help="comma-separated ranges")
    p.add_argument("--tol", type=_tolerance, default=_RTOL, help="relative tolerance")
    p.set_defaults(func=_cmd_localize_toa)

    p = sub.add_parser("localize-tdoa", parents=[config], help="invert a range-difference pair")
    p.add_argument("--tau", required=True, type=_floats, help="comma-separated differences")
    p.add_argument("--tol", type=_tolerance, default=_RTOL)
    p.set_defaults(func=_cmd_localize_tdoa)

    p = sub.add_parser("classify", parents=[config], help="classify measurements without inverting")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--toa", type=_floats)
    group.add_argument("--tdoa", type=_floats)
    p.add_argument("--tol", type=_tolerance, default=_RTOL)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("surface-sample", parents=[config], help="CSV grid of ranges and curvature")
    p.add_argument("--range", required=True, type=_range_pair, help="lo:hi grid extent")
    p.add_argument("--resolution", required=True, type=int, help="points per axis (>= 2)")
    p.add_argument("--output", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_surface_sample)

    p = sub.add_parser("features", parents=[config],
                       help="nodes, tropes, arcs, facets of a configuration")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("params", help="triangle shape parameters")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--config")
    group.add_argument("--point", type=_floats, help="a,c[,scale]")
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("simulate", parents=[config], help="noisy measurement batches")
    p.add_argument("--source", required=True, type=_floats, help="source position x,y")
    p.add_argument("--sigma", required=True, type=float)
    p.add_argument("--bias", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-n", type=int, default=1, help="number of samples")
    p.add_argument("--kind", choices=("toa", "tdoa"), default="toa")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "resolution", None) is not None and args.resolution < 2:
        print("rangegeom surface-sample: --resolution must be >= 2", file=sys.stderr)
        return 2
    try:
        config = None if args.config is None else _load_config(args.config)
        payload = args.func(args, config)
        if payload is not None:
            _emit(payload)
        return 0
    except _CONFIG_ERRORS as exc:
        _fail(exc)
        return 3
    except Exception as exc:
        _fail(exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
