"""Snapshot test of the public API surface.

The committed snapshot (``tests/fixtures/api_surface.json``) enumerates
the :mod:`repro.api` facade and every package-level ``__all__``.  Any
addition, removal, or rename of a public name fails this test until the
snapshot is deliberately regenerated — making API changes an explicit,
reviewable act rather than an accident.  A second guard keeps moved names
from lingering as forwarders: no module under ``src/repro`` may define a
module-level ``__getattr__`` or import from the test-suite.

Regenerate after an intentional change with::

    PYTHONPATH=src python tests/test_api_surface.py --regenerate
"""

from __future__ import annotations

import ast
import importlib
import json
from pathlib import Path

SNAPSHOT = Path(__file__).resolve().parent / "fixtures" / "api_surface.json"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Every module whose ``__all__`` is part of the public contract.  The
#: facade comes first; the rest are the importable subpackages.
PUBLIC_MODULES = (
    "repro.api",
    "repro",
    "repro.alloc",
    "repro.analysis",
    "repro.cache",
    "repro.core",
    "repro.engine",
    "repro.ml",
    "repro.obs",
    "repro.online",
    "repro.profiling",
    "repro.resilience",
    "repro.sim",
    "repro.trace",
)


def current_surface() -> dict[str, list[str]]:
    """Enumerate the live public surface, sorted for stable diffs."""
    surface: dict[str, list[str]] = {}
    for name in PUBLIC_MODULES:
        module = importlib.import_module(name)
        surface[name] = sorted(module.__all__)
    return surface


def test_surface_matches_snapshot():
    recorded = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    live = current_surface()
    assert live == recorded, (
        "public API surface drifted from tests/fixtures/api_surface.json; "
        "if the change is intentional, regenerate with "
        "`PYTHONPATH=src python tests/test_api_surface.py --regenerate`"
    )


def test_facade_names_resolve():
    api = importlib.import_module("repro.api")
    for name in api.__all__:
        assert getattr(api, name, None) is not None, f"repro.api.{name} listed but missing"


def _shims(path: Path) -> list[str]:
    """Module-level ``__getattr__`` forwarders and imports from ``tests`` in one file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        f"{path}:{node.lineno}: module-level __getattr__"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__getattr__"
    ]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        else:
            continue
        found += [f"{path}:{node.lineno}: imports {m}" for m in modules if m == "tests" or m.startswith("tests.")]
    return found


def test_package_has_no_forwarders_or_test_imports():
    files = sorted(PACKAGE.rglob("*.py"))
    assert files, f"no modules found under {PACKAGE}"
    found = [shim for path in files for shim in _shims(path)]
    assert not found, "deprecation forwarders or test imports in src/repro:\n" + "\n".join(found)


def test_shim_scan_flags_forwarders_and_test_imports(tmp_path):
    module = tmp_path / "shim.py"
    module.write_text("import tests.oracles\nfrom tests import oracles\n\ndef __getattr__(name):\n    pass\n")
    assert len(_shims(module)) == 3
    module.write_text("import testsuite\n\nclass A:\n    def __getattr__(self, name):\n        pass\n")
    assert _shims(module) == []


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        SNAPSHOT.write_text(json.dumps(current_surface(), indent=2) + "\n", encoding="utf-8")
        print(f"wrote {SNAPSHOT}")
    else:
        print(json.dumps(current_surface(), indent=2))
