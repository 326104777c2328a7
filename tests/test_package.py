import ast
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
