import ast
import importlib
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import drowsebench


def absolute_imports():
    """``(file name, line, module name)`` of each absolute import in the package."""
    for path in sorted(Path(drowsebench.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield path.name, node.lineno, name


def test_package_imports_only_the_standard_library():
    imports = list(absolute_imports())
    assert imports
    foreign = [
        f"{file}:{line} {name}"
        for file, line, name in imports
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_only_report_imports_csv():
    # report.read_columns, iter_csv and write_csv are the package's one CSV
    # reader and writer; a module that imports csv itself starts a second one
    importers = {file for file, _, name in absolute_imports() if name.partition(".")[0] == "csv"}
    assert importers == {"report.py"}


def test_modules_import_no_private_name_from_a_sibling():
    private = []
    for path in sorted(Path(drowsebench.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").partition(".")[0] != "drowsebench":
                continue
            private += [
                f"{path.name}:{node.lineno} {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert private == []


def test_modules_read_no_private_name_of_the_standard_library():
    # a private helper such as statistics._float_sqrt_of_frac can change or
    # vanish in any Python release
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    found = []
    for path in sorted(Path(drowsebench.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        stdlib = set()  # names bound to a standard-library module
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.partition(".")[0] in sys.stdlib_module_names:
                        stdlib.add(alias.asname or alias.name.partition(".")[0])
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.partition(".")[0] in sys.stdlib_module_names:
                    found += [f"{path.name}:{node.lineno} {node.module}.{alias.name}"
                              for alias in node.names if private(alias.name)]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or not private(node.attr):
                continue
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in stdlib:
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert found == []


def test_no_isinstance_fork_on_a_package_class():
    # each algorithm takes the one type the package builds for it; an
    # isinstance check against a package class starts a second input path
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(Path(drowsebench.__file__).parent.glob("*.py"))}
    classes = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    forks = []
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and len(node.args) == 2):
                continue
            named = {getattr(n, "id", None) or getattr(n, "attr", None)
                     for n in ast.walk(node.args[1])}
            if named & classes:
                forks.append(f"{file}:{node.lineno}")
    assert forks == [], "isinstance fork on a package class: " + ", ".join(forks)


def test_readme_library_imports_run():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL)
    assert block and "from drowsebench import" in block.group(1)
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_each_export_is_its_modules_object():
    for name, module in drowsebench._EXPORTS.items():
        assert getattr(drowsebench, name) is getattr(
            importlib.import_module(f"drowsebench.{module}"), name), name
    star = {}
    exec("from drowsebench import *", star)
    assert sorted(name for name in star if not name.startswith("_")) == sorted(drowsebench._EXPORTS)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        drowsebench.no_such_name


def tracer_targets():
    """``(module, name)`` of each drowsebench attribute perfbench/tracing.py wraps."""
    tracing = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(tracing.read_text(), filename=str(tracing))
    targets = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap" and isinstance(node.args[0], ast.Name)
                and isinstance(node.args[1], ast.Constant)):
            targets.append((node.args[0].id, node.args[1].value))
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "CLI_LIBRARY_CALLS"):
            targets += [("cli", name) for name in ast.literal_eval(node.value)]
    return targets


def test_names_the_benchmark_tracer_wraps_exist():
    # perfbench/tracing.py patches these attributes by name; the benchmark
    # fails at start-up if one is renamed or deleted
    targets = tracer_targets()
    assert {"read_frame", "write_frame", "encode_frame", "decode_frame"} <= {
        name for _, name in targets}
    assert any(module == "cli" for module, _ in targets)
    missing = [f"drowsebench.{module}.{name}" for module, name in targets
               if not hasattr(importlib.import_module(f"drowsebench.{module}"), name)]
    assert missing == []


def unread_members(trees):
    """``(module, class, member)`` of each public method or property of a
    top-level class in ``trees`` that no attribute read outside the
    member's own body reaches.

    Where one class alone defines a member name, any read of that
    attribute reaches it.  Where two or more classes do, a read reaches
    class ``C``'s member only as ``C.name``, or as ``self.name`` or
    ``cls.name`` inside ``C``'s body.
    """
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    members = [(module, cls, member) for module, tree in trees.items() for cls in tree.body
               if isinstance(cls, ast.ClassDef) for member in cls.body
               if isinstance(member, defs) and not member.name.startswith("_")]
    # member name -> the number of classes that define it; a property's
    # setter repeats the name in one class
    definers = Counter(name for name, _ in {(member.name, id(cls)) for _, cls, member in members})
    reads = {}  # attribute name -> the nodes that read it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append(node)

    unread = []
    for module, cls, member in members:
        own = {id(node) for node in ast.walk(member)}
        inside = {id(node) for node in ast.walk(cls)}

        def reaches(node):
            if id(node) in own:
                return False
            if definers[member.name] == 1:
                return True
            receiver = node.value
            if getattr(receiver, "id", None) in ("self", "cls"):
                return id(node) in inside
            return getattr(receiver, "id", getattr(receiver, "attr", None)) == cls.name

        if not any(map(reaches, reads.get(member.name, ()))):
            unread.append((module, cls.name, member.name))
    return unread


SHARED_NAME = """
class A:
    def of(self): ...
    def at(self): ...

class B:
    def of(self): ...
{b_body}
def use(x):
    return A.of(), x.at(){use}
"""


@pytest.mark.parametrize("b_body, use, unread", [
    # only A.of is read, and a match by name alone would count it for B.of
    # too; A.at, which no other class defines, is reached through x
    ("", "", [("m.py", "B", "of")]),
    # self.of inside B's body reaches B.of
    ("    def again(self):\n        return self.of()\n", ", x.again()", []),
], ids=["only-A-of-is-read", "B-reads-self-of"])
def test_member_guard_resolves_whose_method_a_shared_name_is(b_body, use, unread):
    source = SHARED_NAME.format(b_body=b_body, use=use)
    assert unread_members({"m.py": ast.parse(source)}) == unread


def test_every_public_name_has_a_caller_in_the_package():
    # a public top-level def or class is read somewhere in src/ outside its
    # own body (an import alone does not count, nor does an export: each
    # exported name has a caller of its own), or wrapped by the benchmark's
    # tracer; a public method or property of
    # a package class is reached by an attribute read in src/ outside its
    # own body (see unread_members), or overrides a base-class member the
    # base calls; anything else serves only tests
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(Path(drowsebench.__file__).parent.glob("*.py"))}
    kept = {name for _, name in tracer_targets()}
    loaded = {}  # name -> ids of the nodes that read it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                loaded.setdefault(node.attr, set()).add(id(node))

    def has_caller(node):
        return bool(loaded.get(node.name, set()) - {id(inner) for inner in ast.walk(node)})

    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (*defs, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in kept and not has_caller(node):
                unused.append(f"{module}: {node.name}")
    for module, name, member in unread_members(trees):
        cls = getattr(importlib.import_module(f"drowsebench.{Path(module).stem}"), name)
        if not any(hasattr(base, member) for base in cls.__mro__[1:]):
            unused.append(f"{module}: {name}.{member}")
    assert unused == [], "no caller in src/: " + ", ".join(unused)
