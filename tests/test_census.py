"""scripts/fiber_census.py's batched census against the per-point census it replaced."""
import importlib.util
from pathlib import Path

import pytest

import rangegeom as rg

from oracles import census_per_point

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "fiber_census.py"


@pytest.fixture(scope="module")
def fiber_census():
    spec = importlib.util.spec_from_file_location("fiber_census_under_test", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _csv(rows):
    return ["%.17g,%.17g,%s,%s,%s" % row for row in rows]


@pytest.mark.parametrize("receivers", [
    [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
    [(0.0, 0.0), (1.0, 0.0), (0.6, 0.7)],
    [(3.0, -1.0), (5.5, -1.0), (4.5, 0.75)],  # the triangle above, scaled by 2.5 and shifted
    [(0.0, 0.0), (1.0, 0.0), (1.5, 0.4)],
    [(0.0, 0.0), (1.0, 0.0), (0.4, 1e-3)],
    [(0.0, 0.0), (1.0, 0.0), (0.4, 1e-5)],
    [(0.0, 0.0), (1.0, 0.0), (0.3, 0.0)],
    [(0.0, 0.0), (0.3, 0.0), (1.0, 0.0)],  # canonical order differs from the input order
    [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)],  # clockwise: w12 < 0, so the flip orientation runs
    # thin: the batch census must equal the per-point one, whatever both get wrong
    [(0.0, 0.0), (1.0, 0.0), (0.4, 1e-6)],
    [(250.0, -75.0), (1250.0, -75.0), (550.0, -75.0)],  # collinear, scaled by 1e3 and shifted
])
def test_batched_census_matches_the_per_point_census(fiber_census, receivers):
    config = rg.validate_config(receivers)
    rows, counts, mismatches = fiber_census.census(config, 1.2, 41)
    want_rows, want_counts, want_mismatches = census_per_point(config, 1.2, 41)
    assert _csv(rows) == _csv(want_rows)
    # as tuples too: "%s" prints a fiber 1 and a fiber "1" alike
    assert rows == want_rows
    assert {tuple(map(type, row)) for row in rows} == {(float, float, str, str, str)}
    assert counts == want_counts
    assert mismatches == want_mismatches


def test_census_just_over_one_block(fiber_census):
    # the second block is a partial one
    resolution = 4 + int(fiber_census.BLOCK ** 0.5)
    config = rg.validate_config([(0.0, 0.0), (1.0, 0.0), (0.6, 0.7)])
    assert fiber_census.BLOCK < resolution ** 2 < 2 * fiber_census.BLOCK
    rows, counts, mismatches = fiber_census.census(config, 1.2, resolution)
    want_rows, want_counts, want_mismatches = census_per_point(config, 1.2, resolution)
    assert _csv(rows) == _csv(want_rows)
    assert (counts, mismatches) == (want_counts, want_mismatches)
