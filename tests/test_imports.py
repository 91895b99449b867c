"""Every name a package or test module imports at its top level is used
there. No linter runs on this project, so this test is the check."""
import ast
from pathlib import Path

import outbreakmon

PACKAGE = Path(outbreakmon.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


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
