#!/usr/bin/env python3
"""Census of range-difference fiber sizes over the measurement plane.

Samples a grid of difference pairs, classifies each against the exact
region decomposition, and cross-checks the predicted fiber size by running
the closed-form inversion.  Both go through ``tau_fibers``, a block of grid
points per call, which returns the labels, fibers and points as plain
tuples and builds no result objects.  Only the rows classified with fiber
1 or 2 are inverted, so the check catches a wrong source count there, not a
source at a fiber-0 point; that direction is held by
tests/test_tdoa.py::test_no_fiber_0_row_of_the_census_grid_has_a_source,
which runs invert_tdoa on every fiber-0 row of a 41^2 grid.  Writes a
labeled CSV plus a JSON summary, and a region map PNG when matplotlib is
installed.  Exits with status 1 when any sample's fiber size disagrees with
its solution count.

Example:

    python scripts/fiber_census.py --receivers "0,0 1,0 0,1" --out out/census
"""
import argparse
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import rangegeom as rg


def parse_receivers(text: str):
    pts = []
    for chunk in text.replace(";", " ").split():
        xy = [float(v) for v in chunk.split(",")]
        if len(xy) != 2:
            raise SystemExit(f"receiver {chunk!r} is not x,y")
        pts.append(xy)
    return rg.validate_config(pts)


# Grid points per tau_fibers call: bounds the per-row arrays and lists alive
# at once.  One call over the default 161^2 grid raises the process's peak
# RSS from 37.7 to 49.5 MB (+31 %; right triangle, numpy 2.4, x86-64), for
# no gain in speed.
BLOCK = 512


# the census's text for each fiber size tau_fibers returns
FIBER_TEXT = {0: "0", 1: "1", 2: "2", math.inf: "inf"}


def census(config, extent: float, resolution: int):
    """Rows (tau1, tau2, label, fiber, solutions) of the grid, in row-major order, with the
    label counts and the number of rows whose fiber size is not their solution count.

    tau1 and tau2 are floats and the other three fields strings, as the CSV prints them;
    solutions is "" on the rows without points and on every row of collinear receivers.
    """
    lim = extent * config.d_max
    axis = np.linspace(-lim, lim, resolution)
    rows = []
    counts = Counter()
    mismatches = 0
    for start in range(0, resolution * resolution, BLOCK):
        # grid points in row-major order: tau1 = axis[i], tau2 = axis[j]
        index = np.arange(start, min(start + BLOCK, resolution * resolution))
        t1, t2 = axis[index // resolution], axis[index % resolution]
        labels, fibers, points = rg.tau_fibers(config, np.stack((t1, t2), axis=1))
        counts.update(labels)
        if points is None:
            texts = [""] * len(labels)
        else:
            # a row of fiber 0 has the points (), so it is never a mismatch
            mismatches += sum([len(found) != fiber for found, fiber in zip(points, fibers)])
            texts = [";".join(["%.17g:%.17g" % p for p in found]) if found else ""
                     for found in points]
        rows.extend(zip(t1.tolist(), t2.tolist(), labels, map(FIBER_TEXT.__getitem__, fibers),
                        texts))
    return rows, counts, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--receivers", default="0,0 1,0 0,1")
    parser.add_argument("--extent", type=float, default=1.2, help="half-width in units of d_max")
    parser.add_argument("--resolution", type=int, default=161)
    parser.add_argument("--out", default="out/census")
    args = parser.parse_args(argv)

    config = parse_receivers(args.receivers)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows, counts, mismatches = census(config, args.extent, args.resolution)

    csv_path = out_dir / "census.csv"
    with csv_path.open("w", encoding="utf-8") as fh:
        fh.write("tau1,tau2,label,fiber,solutions\n")
        for t1, t2, label, fiber, solutions in rows:
            fh.write("%.17g,%.17g,%s,%s,%s\n" % (t1, t2, label, fiber, solutions))
    print("wrote", csv_path)

    summary = {
        "receivers": [list(map(float, config.m(i))) for i in range(1, config.n + 1)],
        "collinear": config.is_collinear,
        "samples": len(rows),
        "regions": dict(sorted(counts.items())),
        "fiber_count_mismatches": mismatches,
    }
    json_path = out_dir / "summary.json"
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True), encoding="utf-8")
    print("wrote", json_path)
    print(json.dumps(summary["regions"], indent=2, sort_keys=True))
    if mismatches:
        print(f"WARNING: {mismatches} samples had fiber/solution-count disagreement")
    status = 1 if mismatches else 0

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping census.png", file=sys.stderr)
        return status
    labels = sorted({r[2] for r in rows})
    index = {lbl: i for i, lbl in enumerate(labels)}
    n = args.resolution
    img = np.array([index[r[2]] for r in rows], dtype=float).reshape(n, n)
    fig, ax = plt.subplots(figsize=(7, 6))
    mesh = ax.pcolormesh(
        np.linspace(-args.extent * config.d_max, args.extent * config.d_max, n),
        np.linspace(-args.extent * config.d_max, args.extent * config.d_max, n),
        img.T,
        cmap="tab10",
        vmin=-0.5,
        vmax=max(9.5, len(labels) - 0.5),
    )
    cbar = fig.colorbar(mesh, ax=ax, ticks=range(len(labels)))
    cbar.ax.set_yticklabels(labels)
    ax.set_xlabel("tau1")
    ax.set_ylabel("tau2")
    ax.set_aspect("equal")
    ax.set_title("range-difference region decomposition")
    png_path = out_dir / "census.png"
    fig.savefig(png_path, dpi=140, bbox_inches="tight")
    plt.close(fig)
    print("wrote", png_path)
    return status


if __name__ == "__main__":
    sys.exit(main())
