"""Every module under src/affinitykg imports at module level, uses every
name it imports, and reads every private name it defines; every public
function and class it defines is read outside the unit tests; only the
modules that own a file format write files.

The project ships no linter; these stdlib-ast checks keep a deletion from
leaving an orphaned import or private helper behind, and keep imports where a
reader (and the unused-import check) sees them.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "affinitykg")
# The code whose reads keep a public name alive: the package, its scripts, the
# benchmark (whose tracer names its targets in strings) and the acceptance suite.
READERS = ("src/affinitykg/*.py", "scripts/*.py", "perfbench/*.py", "tests/test_acceptance.py")


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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unread_private_names(source: str) -> list:
    """Module-level functions, classes and assignments named with one leading
    underscore that the module never reads as a name."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(name.id for target in targets for name in ast.walk(target)
                           if isinstance(name, ast.Name))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in defined - read if _is_private(name))


def private_imports(source: str) -> list:
    """Private names that an import statement takes from another module."""
    return sorted(alias.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  for alias in node.names if _is_private(alias.name))


# The modules that own a file format: util's atomic writers themselves, the
# split directory, the checkpoint, records.csv, and the stage shell.
WRITERS = {"util.py", "kg.py", "trainer.py", "synthetic.py", "cli.py"}


def _names_read(node) -> list:
    """The names a node reads: a name, an attribute, or an imported name."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def file_writes(source: str) -> list:
    """The atomic file writers a module reads, by name, attribute or import."""
    return sorted({name for node in ast.walk(ast.parse(source)) for name in _names_read(node)}
                  & {"atomic_write_text", "atomic_write_bytes"})


def public_definitions(source: str) -> list:
    """Module-level functions and classes without a leading underscore."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def names_read(source: str) -> set:
    """Every name a module reads: as a name, an attribute or an imported name,
    or as a dotted part of a string constant (a tracer target, an __all__ entry)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            continue
        read.update(_names_read(node))
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.update(node.value.split("."))
    return read


def unread_public_names() -> dict:
    """The public functions and classes of each module that no reader reads."""
    read = set()
    for pattern in READERS:
        for path in glob.glob(os.path.join(ROOT, pattern)):
            with open(path, encoding="utf-8") as fh:
                read |= names_read(fh.read())
    return findings(lambda source: sorted(set(public_definitions(source)) - read))


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


def test_every_module_reads_every_private_name_it_defines():
    assert findings(unread_private_names) == {}


def test_no_module_imports_a_private_name():
    assert findings(private_imports) == {}


def test_every_public_name_is_read_outside_the_unit_tests():
    assert unread_public_names() == {}


def test_only_the_format_owners_write_files():
    assert set(findings(file_writes)) - WRITERS == set()


def test_check_finds_unused_imports():
    source = ("import os\nimport a.b\nfrom x import y, z as w\n"
              "from p import q\n__all__ = ['q']\nprint(y)\n")
    assert unused_imports(source) == ["a", "os", "w"]


def test_check_finds_imports_inside_functions():
    source = ("import os\n"
              "def f():\n    import json\n    def g():\n        from x import y\n"
              "class C:\n    def m(self):\n        import re\n")
    assert function_imports(source) == [3, 5, 8]


def test_check_finds_unread_private_names():
    source = ("_USED = 1\n_unused: int = 2\n__dunder__ = 3\npublic = 4\n"
              "def _orphan_helper():\n    return _USED\n"
              "class _Orphan:\n    pass\n"
              "def _called():\n    pass\n"
              "def f():\n    _local = 5\n    return _called()\n")
    assert unread_private_names(source) == ["_Orphan", "_orphan_helper", "_unused"]


def test_check_finds_private_imports():
    source = "from a import b, _c\nfrom d import _e as e\n"
    assert private_imports(source) == ["_c", "_e"]


def test_check_finds_public_names_and_their_reads():
    source = ("def f():\n    return g()\ndef g():\n    pass\nclass C:\n    pass\n"
              "def _h():\n    pass\nx = 1\n")
    assert public_definitions(source) == ["f", "g", "C"]
    assert "g" in names_read(source) and not {"f", "C"} & names_read(source)
    reads = names_read("from m import a\nimport n\nn.b\nc = 1\nT = ('m', 'K.d')\n")
    assert {"a", "b", "K", "d"} <= reads and "c" not in reads


def test_check_finds_file_writes():
    assert file_writes("from affinitykg.util import atomic_write_bytes as write\n") == [
        "atomic_write_bytes"]
    assert file_writes("from affinitykg import util\nutil.atomic_write_text('p', '')\n") == [
        "atomic_write_text"]
    assert file_writes("from affinitykg.util import csv_text\ncsv_text([])\n") == []
