"""scripts/fiber_census.py's batched census against the per-point census it replaced."""
import hashlib
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


# SHA-256 of the 41^2 census text of each receiver set above with no mismatch, taken before the
# per-point census and the batched one shared their classification pipeline: a label change
# common to both shows here.
@pytest.mark.parametrize("receivers, digest", [
    ([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
     "fcd07dfced448e21e7dcb01905e99b550cde3dbb60cd75cd95b0988ca6e12c7f"),
    ([(0.0, 0.0), (1.0, 0.0), (0.6, 0.7)],
     "18f8dddc1ec9ffaf3c9243b770f66f953c0dbc5cde018fce9b3ffaf31dd15afb"),
    ([(3.0, -1.0), (5.5, -1.0), (4.5, 0.75)],
     "ae79cfb3452c366b89bc45e706a5cfcd3fbe6760183fe63652fddebd93cc0249"),
    ([(0.0, 0.0), (1.0, 0.0), (1.5, 0.4)],
     "c8d8990ac8048774a02f48b1888204efcc91351f2e02887ba83b05a9f2e2db26"),
    ([(0.0, 0.0), (1.0, 0.0), (0.3, 0.0)],
     "c88ac84d323ee9b1127611c3f1a165daf8f92e384710c808c0bad704226186ce"),
    ([(0.0, 0.0), (0.3, 0.0), (1.0, 0.0)],
     "3124cdf8bbc9405b7c2aaf0942ed65bbe988ca44d242c399b5c0c7cb66005d80"),
    ([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)],
     "dcef39d5c564de5ddf1522119d76ca646a2f35ecbbb8d4f8efc0cef967971842"),
    ([(250.0, -75.0), (1250.0, -75.0), (550.0, -75.0)],
     "743bb9907ed11d1b1552a0812fec414f94fd1286a53c9d25b6c2043488bc4eae"),
])
def test_census_text_is_pinned(fiber_census, receivers, digest):
    rows, _, mismatches = fiber_census.census(rg.validate_config(receivers), 1.2, 41)
    assert mismatches == 0
    assert hashlib.sha256("\n".join(_csv(rows)).encode()).hexdigest() == digest


def test_census_just_over_one_block(fiber_census):
    # the second block is a partial one
    resolution = 4 + int(fiber_census.BLOCK ** 0.5)
    config = rg.validate_config([(0.0, 0.0), (1.0, 0.0), (0.6, 0.7)])
    assert fiber_census.BLOCK < resolution ** 2 < 2 * fiber_census.BLOCK
    rows, counts, mismatches = fiber_census.census(config, 1.2, resolution)
    want_rows, want_counts, want_mismatches = census_per_point(config, 1.2, resolution)
    assert _csv(rows) == _csv(want_rows)
    assert (counts, mismatches) == (want_counts, want_mismatches)
