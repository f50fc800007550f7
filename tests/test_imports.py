"""Import guards, each in a fresh interpreter.

Package ``__init__``\\ s re-export lazily, so what an entry module loads
depends on which names it touches.  pytest's shared interpreter has long
since imported everything, which hides both a module loaded too eagerly
and a lazily resolved name that no longer resolves; each check here
therefore runs in its own subprocess.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.audit",
    "repro.exec",
    "repro.experiments",
    "repro.instrument",
    "repro.ir",
    "repro.livermore",
    "repro.machine",
    "repro.metrics",
    "repro.native",
    "repro.obs",
    "repro.resilience",
    "repro.runtime",
    "repro.sim",
    "repro.trace",
)


def run_fresh(code: str):
    """Run ``code`` in a new interpreter; return the JSON it prints."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    return json.loads(out.stdout)


def loaded_after(module: str) -> set[str]:
    return set(run_fresh(
        f"import json, sys, {module}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))"
    ))


def test_cli_loads_only_what_a_report_runs():
    loaded = loaded_after("repro.cli")
    never = {
        "repro.exec.executor",
        "repro.trace.query",
        "repro.trace.slice",
        "repro.trace.stream",
        "repro.trace.order",
        "repro.obs.export",
        "repro.obs.calibrate",
        "repro.livermore.kernels",
        "repro.analysis.auto",
        "repro.instrument.rewrite",
        "repro.metrics.phases",
        "repro.metrics.segments",
    }
    assert not loaded & never
    assert not {m for m in loaded if m.startswith("repro.resilience")}


def test_tracetool_does_not_load_the_simulator():
    loaded = loaded_after("repro.tracetool")
    prefixes = ("repro.sim", "repro.exec", "repro.experiments", "repro.livermore")
    assert not {m for m in loaded if m.startswith(prefixes)}
    assert "repro.machine.machine" not in loaded


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves(package):
    missing = run_fresh(
        f"import json, {package} as p\n"
        "names = set(dir(p))\n"
        "print(json.dumps([n for n in p.__all__\n"
        "                  if n not in names or not hasattr(p, n)]))"
    )
    assert missing == []


@pytest.mark.parametrize("first", ["package", "submodule"])
@pytest.mark.parametrize(
    "package, name", [("repro.obs", "calibrate"), ("repro.livermore", "classify")]
)
def test_name_shadowing_a_submodule_is_the_function(package, name, first):
    """``repro.obs.calibrate`` and ``repro.livermore.classify`` name both a
    function and its module; the package attribute is the function, whether
    the package or the submodule is imported first."""
    module = f"{package}.{name}"
    steps = {
        "package": f"from {package} import {name} as before\nimport {module}\n",
        "submodule": f"import {module}\nfrom {package} import {name} as before\n",
    }[first]
    kinds = run_fresh(
        "import json, types\n"
        + steps
        + f"import {package} as p\n"
        "after = p." + name + "\n"
        "print(json.dumps([isinstance(f, types.FunctionType) and f.__module__ == "
        f"{module!r} for f in (before, after)]))"
    )
    assert kinds == [True, True]
