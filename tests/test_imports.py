"""No module of the package or of its tests imports a name it never uses.

A stdlib-only stand-in for a linter's unused-import rule: the module-level
imports of each file against the names the file reads.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = sorted((ROOT / "src" / "clustersfm").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of `source` that the module
    never reads."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom pathlib import Path, PurePath\nfrom a.b import c\n" \
             "def f():\n    import json\n    return np.zeros(1), Path\n"
    assert unused_imports(source) == ["os", "PurePath", "c"]


def test_no_unused_module_level_imports():
    found = {
        str(path.relative_to(ROOT)): names
        for path in CHECKED
        if path.name != "__init__.py"  # a package's __init__ imports to re-export
        for names in [unused_imports(path.read_text())]
        if names
    }
    assert found == {}
