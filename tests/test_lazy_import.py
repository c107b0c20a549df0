"""Lazy loading: `import rangegeom` loads no submodule, and a CLI command loads only what it runs.

The loading checks run in fresh interpreters, since the test process has long
loaded every submodule.
"""
import importlib
import inspect
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
                             "surface", "tdoa", "toa2", "toa3", "toa3d")},
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


@pytest.mark.parametrize("module", sorted(rg._EXPORTS))
def test_the_export_table_lists_each_public_definition_under_its_module(module):
    """Every public function and class a submodule defines is listed under it in _EXPORTS,
    and every name listed under a submodule is there, defined by it when a function or class."""
    mod = importlib.import_module(f"rangegeom.{module}")
    defined = {name for name, obj in vars(mod).items() if not name.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == mod.__name__}
    listed = rg._EXPORTS[module]
    assert defined <= set(listed), sorted(defined - set(listed))
    for name in listed:
        obj = getattr(mod, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == mod.__name__, name


# Commands that must not load a module they never run, by golden case prefix (the longest
# prefix that matches): only the features and surface-sample commands run the surface
# geometry, features on collinear receivers not even that, and params not even the quartic;
# TOA, feature, parameter and surface commands run no TDOA code; no command but simulate runs
# the simulation, and none the 3-D solvers; the Minkowski helpers of spacetime serve the
# three-receiver solvers and the surface geometry only.
_NOT_RUN = {
    "localize_toa": ("sim", "surface", "tdoa", "toa3d"),
    "localize_toa_pair": ("sim", "spacetime", "surface", "tdoa", "toa3d"),
    "classify_toa": ("sim", "surface", "tdoa", "toa3d"),
    "localize_tdoa": ("sim", "surface", "toa3d"),
    "classify_tdoa": ("sim", "surface", "toa3d"),
    "features_right": ("sim", "tdoa", "toa3d"),
    "features_collinear": ("params", "sim", "spacetime", "surface", "tdoa", "toa3d"),
    "surface": ("sim", "tdoa", "toa3d"),
    "params": ("kummer", "sim", "spacetime", "surface", "tdoa", "toa3d"),
    "simulate": ("spacetime", "surface", "tdoa"),
}
_UNUSED = {name: tuple(f"rangegeom.{m}" for m in _NOT_RUN[max(
               (prefix for prefix in _NOT_RUN if name.startswith(prefix)), key=len)])
           for name in CASES if any(name.startswith(prefix) for prefix in _NOT_RUN)}

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
