"""Every name a module under src/affinitykg imports is used in that module.

The project ships no linter; this stdlib-ast check keeps a deletion from
leaving an orphaned import behind.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "affinitykg")


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read as a name afterwards.

    A name listed in __all__ counts as used: the package re-exports it.
    """
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(element.value for element in node.value.elts)
    return sorted(imported - used)


def test_every_module_uses_every_name_it_imports():
    unused = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            names = unused_imports(fh.read())
        if names:
            unused[os.path.basename(path)] = names
    assert unused == {}


def test_check_finds_unused_imports():
    source = ("import os\nimport a.b\nfrom x import y, z as w\n"
              "from p import q\n__all__ = ['q']\nprint(y)\n")
    assert unused_imports(source) == ["a", "os", "w"]
