"""Static checks over the package source. numpy is the only runtime
dependency: every module imports only the standard library, numpy and the
package itself. Every random generator is built by `seeding.make_rng`."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "slackline"


def test_imports_are_stdlib_numpy_or_own():
    allowed = set(sys.stdlib_module_names) | {"numpy", "slackline"}
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert len(list(PACKAGE.glob("*.py"))) > 10
    assert outside == []


def test_generators_come_from_seeding():
    """No module but seeding.py calls SeedSequence or default_rng, so every
    generator is keyed the one way, with seeds taken mod 2**63."""
    raw = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "seeding.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in ("SeedSequence", "default_rng"):
                    raw.append(f"{path.name}:{node.lineno}: {name}")
    assert (PACKAGE / "seeding.py").exists()
    assert raw == []
