"""Every name a package or test module imports at its top level is used
there, and every top-level helper or table of a test module is used somewhere
in the tests or the benchmark, and no package module exits outside its main
block. No linter runs on this project, so these tests are the check."""
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


def helpers(tree: ast.Module) -> list[str]:
    """The names a module defines at its top level, less its tests: each
    function, and each name an assignment binds."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("test_"):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [name.id for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name)]
    return names


def test_every_test_helper_is_referenced():
    # a reference is a name read, an attribute or a parameter, which is how
    # a test asks for a fixture
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted([*TESTS.glob("*.py"), *BENCH.glob("*.py")])}
    referenced = {node.id if isinstance(node, ast.Name) else
                  node.attr if isinstance(node, ast.Attribute) else node.arg
                  for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, (ast.Attribute, ast.arg))
                  or isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    unreferenced = [f"{path.name}::{name}" for path, tree in trees.items()
                    if path.parent == TESTS for name in helpers(tree) if name not in referenced]
    assert unreferenced == []


def exits_outside_the_main_block(source: str) -> list[int]:
    """The lines that raise SystemExit, or call ``exit``, ``sys.exit`` or any
    other ``.exit``, outside the module's ``if __name__ == "__main__":``."""
    tree = ast.parse(source)
    body = [node for node in tree.body if not (
        isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'")]
    found = []
    for node in (inner for top in body for inner in ast.walk(top)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(raised, ast.Name) and raised.id == "SystemExit":
                found.append(node.lineno)
        elif isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "exit"
                or isinstance(node.func, ast.Attribute) and node.func.attr == "exit"):
            found.append(node.lineno)
    return found


def test_only_the_main_block_exits():
    # main returns every exit code; an exit anywhere else would end a run
    # past its handlers, or end a caller that imported the package
    found = {path.name: lines for path in sorted(PACKAGE.glob("*.py"))
             if (lines := exits_outside_the_main_block(path.read_text(encoding="utf-8")))}
    assert found == {}
