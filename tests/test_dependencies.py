import ast
import pathlib
import sys

import sidewalksim

PACKAGE = pathlib.Path(sidewalksim.__file__).parent


def test_package_imports_only_the_standard_library_and_numpy():
    # every import statement, those inside functions included; relative
    # imports are the package's own modules
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], path.name)
    # the walk reaches the imports made inside functions
    assert {"hashlib", "subprocess", "multiprocessing", "numpy"} <= set(found)
    allowed = set(sys.stdlib_module_names) | {"numpy", "sidewalksim"}
    assert {module: f for module, f in found.items() if module not in allowed} == {}
