"""Every name a package or test module imports at its top level is used
there, and every top-level helper of a test module is used somewhere in the
tests or the benchmark. No linter runs on this project, so these tests are
the check."""
import ast
from pathlib import Path

import outbreakmon

PACKAGE = Path(outbreakmon.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    unused = {f"{path.parent.name}/{path.name}": names
              for path in sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")])
              if (names := unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}


def test_every_test_helper_is_referenced():
    # a reference is a name, an attribute or a parameter, which is how a
    # test asks for a fixture
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted([*TESTS.glob("*.py"), *BENCH.glob("*.py")])}
    referenced = {node.id if isinstance(node, ast.Name) else
                  node.attr if isinstance(node, ast.Attribute) else node.arg
                  for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute, ast.arg))}
    unreferenced = [f"{path.name}::{node.name}" for path, tree in trees.items()
                    if path.parent == TESTS for node in tree.body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("test_")
                    and node.name not in referenced]
    assert unreferenced == []
