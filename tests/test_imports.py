"""Every module under src/affinitykg imports at module level, and uses every
name it imports.

The project ships no linter; this stdlib-ast check keeps a deletion from
leaving an orphaned import behind, and keeps imports where a reader (and the
unused-import check) sees them.
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


def function_imports(source: str) -> list:
    """Line numbers of the import statements inside a function body."""
    tree = ast.parse(source)
    return sorted({node.lineno
                   for function in ast.walk(tree)
                   if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(function)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


def findings(check) -> dict:
    """check(source) of every module under src/affinitykg, by file, where non-empty."""
    found = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            result = check(fh.read())
        if result:
            found[os.path.basename(path)] = result
    return found


def test_every_module_uses_every_name_it_imports():
    assert findings(unused_imports) == {}


def test_no_module_imports_inside_a_function():
    assert findings(function_imports) == {}


def test_check_finds_unused_imports():
    source = ("import os\nimport a.b\nfrom x import y, z as w\n"
              "from p import q\n__all__ = ['q']\nprint(y)\n")
    assert unused_imports(source) == ["a", "os", "w"]


def test_check_finds_imports_inside_functions():
    source = ("import os\n"
              "def f():\n    import json\n    def g():\n        from x import y\n"
              "class C:\n    def m(self):\n        import re\n")
    assert function_imports(source) == [3, 5, 8]
