"""Lazy loading: `import rangegeom` loads no submodule, and a CLI command loads only what it runs.

The loading checks run in fresh interpreters, since the test process has long
loaded every submodule.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rangegeom as rg
from test_cli import CASES, _golden_path

SRC = str(Path(rg.__file__).resolve().parent.parent)


def _fresh(script: str, *argv: str):
    """The JSON that `script` prints, run in a new interpreter on this checkout's package."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                          env=env, check=True)
    return json.loads(proc.stdout)


_LOADED = "sorted(m for m in sys.modules if m.startswith('rangegeom.'))"


def test_import_loads_no_submodule():
    assert _fresh(f"import json, sys\nimport rangegeom\nprint(json.dumps({_LOADED}))") == []


def test_a_submodule_attribute_loads_that_submodule_alone():
    """`from . import errors` in the CLI must not bind the whole package API."""
    loaded = _fresh(f"import json, sys\nimport rangegeom\nrangegeom.errors\n"
                    f"print(json.dumps({_LOADED}))")
    assert loaded == ["rangegeom.errors"]


def test_the_first_public_name_binds_every_public_name():
    unbound = _fresh("import json\nimport rangegeom as rg\nrg.InvalidParam\n"
                     "print(json.dumps([n for n in rg.__all__ if n not in vars(rg)]))")
    assert unbound == []


def test_public_names_resolve_on_first_use():
    out = _fresh("""
import json, sys
import rangegeom as rg
listed = dir(rg)
names = {}
exec("from rangegeom import *", names)
try:
    rg.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "all": rg.__all__,
    "star": sorted(n for n in names if n != "__builtins__"),
    "dir": listed,
    "missing": [n for n in rg.__all__ if not hasattr(rg, n)],
    "submodules": {m: getattr(rg, m).__name__
                   for m in ("cli", "config", "errors", "kummer", "params", "sim", "spacetime",
                             "tdoa", "toa2", "toa3", "toa3d")},
    "unknown": unknown,
}))
""")
    assert out["missing"] == [] and len(out["all"]) == len(set(out["all"]))
    assert set(out["all"]) <= set(out["star"])
    assert set(out["all"]) <= set(out["dir"])
    assert set(out["submodules"]) <= set(out["dir"])
    assert out["submodules"] == {m: f"rangegeom.{m}" for m in out["submodules"]}
    assert out["unknown"] == "module 'rangegeom' has no attribute 'no_such_name'"


def test_a_public_name_is_its_submodule_attribute():
    assert rg.classify3 is rg.toa3.classify3 and rg.SensorConfig is rg.config.SensorConfig


# Commands that must not load a module they never run: TOA, feature, parameter and
# surface commands run no TDOA, simulation or 3-D code, and a TOA simulation no TDOA code.
_UNUSED = {name: ("rangegeom.sim", "rangegeom.tdoa", "rangegeom.toa3d") for name in CASES
           if name.startswith(("localize_toa", "classify_toa", "features", "params", "surface"))}
_UNUSED["simulate_seeded"] = ("rangegeom.tdoa",)

_COMMAND = f"""
import contextlib, io, json, sys
from rangegeom.cli import main
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = main(sys.argv[1:])
print(json.dumps({{"code": code, "out": buf.getvalue(), "loaded": {_LOADED}}}))
"""


@pytest.mark.parametrize("name", sorted(_UNUSED))
def test_command_loads_only_what_it_runs(name):
    out = _fresh(_COMMAND, *CASES[name])
    assert out["code"] == 0
    assert out["out"] == _golden_path(name).read_text(encoding="utf-8")
    assert not set(_UNUSED[name]) & set(out["loaded"]), out["loaded"]
