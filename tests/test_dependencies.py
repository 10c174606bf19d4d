"""numpy is the only runtime dependency: every module of the package imports
only the standard library, numpy and the package itself."""

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
