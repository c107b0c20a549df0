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

Each subcommand imports the modules it runs inside its handler, so a process
loads (and, without a bytecode cache, compiles) only what its command needs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

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
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        if math.isnan(f):
            return "nan"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
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
# subcommands

def _cmd_localize_toa(args) -> int:
    config = _load_config(args.config)
    T = args.toa
    rtol = args.tol
    if config.n == 2:
        from .toa2 import classify2, invert2

        cls = classify2(config, T, rtol=rtol)
        if cls.verdict == "Outside":
            solutions = ()
        else:
            solutions = invert2(config, T, rtol=rtol)
        payload = {
            "verdict": cls.verdict,
            "fiber": cls.fiber,
            "solutions": [list(map(float, p)) for p in solutions],
            "residuals": cls.residuals,
            "active": list(cls.active),
        }
    else:
        from .toa3 import classify3, invert3, invert3_collinear

        rep = classify3(config, T, rtol=rtol)
        if rep.verdict != "Feasible":
            solutions = ()
        elif config.is_collinear:
            solutions = invert3_collinear(config, T, rtol=max(rtol, _VERIFY_RTOL)).points
        else:
            solutions = invert3(config, T, rtol=max(rtol, _VERIFY_RTOL)).points
        payload = {
            "verdict": rep.verdict,
            "fiber": rep.fiber,
            "reason": rep.reason,
            "residual": rep.quartic_or_quadric_residual,
            "solutions": [list(map(float, p)) for p in solutions],
        }
    _emit(payload)
    return 0


def _cmd_localize_tdoa(args) -> int:
    from .tdoa import classify_invert_tau
    from .toa3 import invert3_collinear

    config = _load_config(args.config)
    # classify_tau's checks in its order, so a one-row batch fails with its messages
    _require_planar_triple(config)
    tau = _measurement(args.tau, 2, "range differences")
    regions, inverted = classify_invert_tau(config, tau[None], rtol=args.tol)
    region = regions[0]
    if config.is_collinear:
        if region.lift is not None and region.fiber not in (0, math.inf):
            solutions = invert3_collinear(config, region.lift, rtol=_VERIFY_RTOL).points
        else:
            solutions = ()
    elif region.fiber in (1, 2):
        solutions = inverted[0].points
    else:
        solutions = ()
    payload = {
        "label": region.label,
        "ids": list(region.ids),
        "fiber": region.fiber,
        "solutions": [list(map(float, p)) for p in solutions],
        "lift": region.lift,
    }
    _emit(payload)
    return 0


def _cmd_classify(args) -> int:
    config = _load_config(args.config)
    if args.toa is not None:
        T = args.toa
        if config.n == 2:
            from .toa2 import classify2

            cls = classify2(config, T, rtol=args.tol)
            payload = {
                "kind": "toa-2",
                "verdict": cls.verdict,
                "fiber": cls.fiber,
                "residuals": cls.residuals,
                "active": list(cls.active),
            }
        else:
            from .toa3 import classify3

            rep = classify3(config, T, rtol=args.tol)
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
    else:
        from .tdoa import classify_tau

        tau = args.tdoa
        region = classify_tau(config, tau, rtol=args.tol)
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
    _emit(payload)
    return 0


def _cmd_surface_sample(args) -> int:
    from .surface import gaussian_curvature

    config = _load_config(args.config)
    lo, hi = args.range
    n = args.resolution
    axis = np.linspace(lo, hi, n)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
    T = config.distances(pts)
    K = gaussian_curvature(config, pts)
    out = sys.stdout if args.output is None else open(args.output, "w", encoding="utf-8")
    try:
        out.write("x,y,T1,T2,T3,K\n")
        for row in range(pts.shape[0]):
            vals = (pts[row, 0], pts[row, 1], T[row, 0], T[row, 1], T[row, 2], K[row])
            out.write(",".join("%.17g" % v for v in vals) + "\n")
    finally:
        if args.output is not None:
            out.close()
    return 0


def _cmd_features(args) -> int:
    from .kummer import Q3_FACETS, Q3_FACETS_COLLINEAR
    from .surface import ARC_LABELS, HULL_COMPONENTS, nodes_and_tropes

    config = _load_config(args.config)
    if config.is_collinear:
        payload = {
            "kind": "collinear",
            "q3_facets": list(Q3_FACETS_COLLINEAR),
            "arc_labels": [],
            "hull_components": [],
            "nodes": None,
            "tropes": None,
        }
        _emit(payload)
        return 0
    nt = nodes_and_tropes(config)
    payload = {
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
    _emit(payload)
    return 0


def _cmd_params(args) -> int:
    from .params import ParamPoint, abc_from_config, cayley_residual, config_from_param, param_from_config

    if args.point is not None:
        vals = args.point
        if vals.shape[0] == 2:
            p = ParamPoint(a=float(vals[0]), c=float(vals[1]))
        elif vals.shape[0] == 3:
            p = ParamPoint(a=float(vals[0]), c=float(vals[1]), scale=float(vals[2]))
        else:
            raise errors.InvalidParam("--point expects a,c[,scale]")
        config = config_from_param(p)
        payload = {
            "receivers": [list(map(float, config.m(i))) for i in (1, 2, 3)],
            "abc": list(abc_from_config(config)),
            "cayley_residual": cayley_residual(*abc_from_config(config)),
        }
        _emit(payload)
        return 0
    config = _load_config(args.config)
    a, b, c = abc_from_config(config)
    payload = {
        "abc": [a, b, c],
        "cayley_residual": cayley_residual(a, b, c),
    }
    if config.is_collinear:
        payload["param"] = None
    else:
        p = param_from_config(config)
        payload["param"] = {"a": p.a, "c": p.c, "scale": p.scale}
    _emit(payload)
    return 0


def _cmd_simulate(args) -> int:
    from .sim import NoiseSpec, gen_noisy_tdoa, gen_noisy_toa

    config = _load_config(args.config)
    spec = NoiseSpec(sigma=args.sigma, bias=args.bias, seed=args.seed)
    x = args.source
    if args.kind == "toa":
        batch = gen_noisy_toa(config, x, spec, n=args.n)
    else:
        batch = gen_noisy_tdoa(config, x, spec, n=args.n)
    payload = {
        "samples": batch.samples,
        "clean": batch.clean,
        "metadata": batch.metadata,
    }
    _emit(payload)
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rangegeom",
        description="Deterministic geometry of range and range-difference localization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("localize-toa", help="invert a range vector")
    p.add_argument("--config", required=True, help="JSON file with a 'receivers' array")
    p.add_argument("--toa", required=True, type=_floats, help="comma-separated ranges")
    p.add_argument("--tol", type=_tolerance, default=_RTOL, help="relative tolerance")
    p.set_defaults(func=_cmd_localize_toa)

    p = sub.add_parser("localize-tdoa", help="invert a range-difference pair")
    p.add_argument("--config", required=True)
    p.add_argument("--tau", required=True, type=_floats, help="comma-separated differences")
    p.add_argument("--tol", type=_tolerance, default=_RTOL)
    p.set_defaults(func=_cmd_localize_tdoa)

    p = sub.add_parser("classify", help="classify measurements without inverting")
    p.add_argument("--config", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--toa", type=_floats)
    group.add_argument("--tdoa", type=_floats)
    p.add_argument("--tol", type=_tolerance, default=_RTOL)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("surface-sample", help="CSV grid of ranges and curvature")
    p.add_argument("--config", required=True)
    p.add_argument("--range", required=True, type=_range_pair, help="lo:hi grid extent")
    p.add_argument("--resolution", required=True, type=int, help="points per axis (>= 2)")
    p.add_argument("--output", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_surface_sample)

    p = sub.add_parser("features", help="nodes, tropes, arcs, facets of a configuration")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("params", help="triangle shape parameters")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--config")
    group.add_argument("--point", type=_floats, help="a,c[,scale]")
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("simulate", help="noisy measurement batches")
    p.add_argument("--config", required=True)
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
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        _fail(exc)
        return 3
    except errors.RangeGeomError as exc:
        _fail(exc)
        return 4
    except Exception as exc:  # pragma: no cover - defensive
        _fail(exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
