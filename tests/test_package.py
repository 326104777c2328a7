import ast
import re
import sys
from pathlib import Path

import drowsebench


def test_package_imports_only_the_standard_library():
    modules = sorted(Path(drowsebench.__file__).parent.glob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert foreign == []


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


def test_readme_library_imports_run():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL)
    assert block and "from drowsebench import" in block.group(1)
    exec(compile(block.group(1), "README.md", "exec"), {})
