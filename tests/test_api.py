"""Guard on the public API: every exported name has a caller inside the package."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "supnorm"

# Exported names whose only callers are tests, each kept for a reason.
KEPT_FOR_TESTS = {
    "enumerate_ball": "coset enumeration checked element by element against raw entry search",
    "faddeev_transfer": "transfer factor checked against exact enumerated sums",
    "displacement": "test oracle for the enumeration and the geometry primitives",
    "displacement_values": "sorted view of the ball for the row-scan tests and a perfbench span target",
    "evaluate_form": "value of the form for the tests; a perfbench span target",
}


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _defined_names(node: ast.stmt) -> set[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def _references() -> dict[str, set[tuple[str, str]]]:
    """Loaded name -> {(module, top-level name whose definition holds the reference)}."""
    refs: dict[str, set[tuple[str, str]]] = {}
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owners = _defined_names(stmt) or {""}
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                refs.setdefault(name, set()).update((path.stem, o) for o in owners)
    return refs


def test_every_export_has_a_package_caller():
    """Exports without a caller in src/ are exactly the ones kept for tests."""
    refs = _references()
    uncalled = []
    for path in sorted(SRC.glob("*.py")):
        for name in _exports(ast.parse(path.read_text(encoding="utf-8"))):
            if not refs.get(name, set()) - {(path.stem, name)}:
                uncalled.append(name)
    assert sorted(uncalled) == sorted(KEPT_FOR_TESTS)


def _loaded_under(code: str, *packages: str) -> list[str]:
    """Modules in or under packages that a fresh interpreter holds after running code.

    The interpreter imports supnorm from this checkout's src/.
    """
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    loaded = json.loads(proc.stdout.splitlines()[-1])
    return [m for m in loaded if any(m == p or m.startswith(p + ".") for p in packages)]


@pytest.mark.parametrize(
    "call",
    [
        "",
        'main(["constants"])',
        'main(["bounds", "--k-max", "60"])',
        'main(["kernel-check", "--k-max", "50"])',
        'main(["verify", "--weights", "12,16,18,20,22,26", "--grid", "100"])',
    ],
)
def test_cli_runs_without_scipy(call):
    """No CLI command imports scipy; only the tests use it, as an oracle."""
    assert _loaded_under(f"from supnorm.cli import main\n{call}", "scipy") == []


def test_constants_and_bounds_run_without_numpy():
    """The domain, constants and bounds API is pure math: no numpy module loads."""
    fixture = str(SRC / "data" / "genus2_cocompact.json")
    code = (
        "import supnorm\n"
        "import supnorm.geometry\n"
        "from supnorm import compute_constants, load_domain, modular_group, run_algorithm\n"
        f"for domain in (modular_group(), load_domain({fixture!r})):\n"
        "    compute_constants(domain)\n"
        "    run_algorithm(domain, k_max=60)\n"
    )
    assert _loaded_under(code, "numpy") == []


@pytest.mark.parametrize(
    "argv,absent",
    [
        (["constants"], ["numpy"]),
        (["bounds", "--k-max", "60"], ["numpy"]),
        (["verify", "--grid", "10"], ["supnorm.kernels"]),
        (["kernel-check", "--k-max", "2"], ["supnorm.verify", "supnorm.enumeration"]),
    ],
    ids=["constants", "bounds", "verify", "kernel_check"],
)
def test_each_command_loads_only_its_layer(argv, absent):
    """constants and bounds load no numpy, verify no kernels, kernel-check no verifier."""
    code = f"from supnorm.cli import main\nassert main({argv!r}) == 0"
    assert _loaded_under(code, *absent) == []


def test_lazy_verify_all_export():
    """verify_all loads on first access; a star import still binds every name in __all__."""
    import supnorm
    import supnorm.verify

    assert supnorm.verify_all is supnorm.verify.verify_all
    namespace: dict = {}
    exec("from supnorm import *", namespace)
    assert all(namespace[name] is getattr(supnorm, name) for name in supnorm.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        supnorm.no_such_name


def _span_targets() -> list[tuple[str, str]]:
    """(module, attribute path) of every TARGETS entry in perfbench/spans.py."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(module, path) for module, path, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/spans.py defines no TARGETS")


@pytest.mark.parametrize("module,path", _span_targets())
def test_span_targets_resolve(module, path):
    """A renamed or moved function fails here, not only in a traced benchmark run."""
    obj = importlib.import_module(module)
    for attr in path.split("."):
        assert hasattr(obj, attr), f"{module}.{path}: no attribute {attr!r}"
        obj = getattr(obj, attr)
    assert callable(obj)
