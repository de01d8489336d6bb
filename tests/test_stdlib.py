import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import apsumset

MODULES = sorted(Path(apsumset.__file__).parent.glob("*.py"))


def imported_roots(path: Path):
    """Top-level names of every module the file imports; relative imports are apsumset."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "apsumset" if node.level else node.module.split(".")[0]


def test_modules_found():
    assert {"catalog.py", "cli.py", "sunit.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_apsumset(path):
    outside = {m for m in imported_roots(path) if m != "apsumset" and m not in sys.stdlib_module_names}
    assert not outside, f"{path.name} imports {sorted(outside)}"


def root_imports(path: Path):
    """Names the file takes from the package root, by `from . import` or `from apsumset import`."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in ((1, None), (0, "apsumset")):
            yield from (alias.name for alias in node.names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_root_gives_only_version_and_submodules(path):
    allowed = {"__version__"} | {p.stem for p in MODULES}
    taken = set(root_imports(path)) - allowed
    assert not taken, f"{path.name} takes {sorted(taken)} from the package root"


def unused_imports(path: Path):
    """Names the file imports and never reads; `from __future__` imports are directives, not names."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def unread_private_names(path: Path):
    """Module-level private names (`_x`, not dunders) the file binds and never reads."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update((n.id, node.lineno) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name.startswith("_") and not name.startswith("__") and name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    unread = unread_private_names(path)
    assert not unread, f"{path.name} defines private names it never reads: {unread}"


# public names the program keeps for a reason stated in ROADMAP.md, though only tests read them
TEST_ONLY_ALLOWED = {
    # ROADMAP item 9: kept until item 6's k = 6 run pins, for every b, that only family1 at k = 1 extends
    "classify.family_nonextension",
}


def public_definitions(path: Path):
    """(line, `module.name`, name) of each public top-level function and class, and of each public method."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.lineno, f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                yield from ((item.lineno, f"{path.stem}.{node.name}.{item.name}", item.name) for item in node.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("_"))


def test_no_test_only_public_api():
    read = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [(path.name, line, qualified) for path in MODULES for line, qualified, name in public_definitions(path)
              if name not in read and qualified not in TEST_ONLY_ALLOWED]
    assert not unread, f"public names nothing in the package reads: {unread}"


# math functions that take and return exact integers
EXACT_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}
# each (module, enclosing top-level function, construct) that leaves exact integers, once
INEXACT_ALLOWED = [
    ("cli.py", "_main", "round()"),  # the manifest's wall-clock duration
]


def inexact_constructs(name: str, source: str):
    """(module, enclosing top-level function, construct, line) of each way out of exact integer arithmetic."""
    for top in ast.parse(source).body:
        scope = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            found = None
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found = "true division"
            elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found = "float literal"
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("float", "round"):
                found = f"{node.func.id}()"
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "math"
                  and node.attr not in EXACT_MATH):
                found = f"math.{node.attr}"
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found = next((f"math.{a.name}" for a in node.names if a.name not in EXACT_MATH), None)
            if found:
                yield name, scope, found, node.lineno


def test_inexact_constructs_found():
    source = "def f(x):\n    x /= 2\n    return math.log(x / 2) + float(x) + round(x) + 0.5 + math.gcd(x, 2)\n"
    source += "from math import sqrt, gcd\n"
    found = {construct for _, _, construct, _ in inexact_constructs("probe.py", source)}
    assert found == {"true division", "math.log", "float()", "round()", "float literal", "math.sqrt"}


def test_arithmetic_is_exact():
    sites = [site for path in MODULES for site in inexact_constructs(path.name, path.read_text())]
    assert [site[:3] for site in sites] == INEXACT_ALLOWED, f"inexact arithmetic: {sites}"


# stdlib modules the package never loads: `import dataclasses` costs about 8 ms and pulls in `inspect`, `ast`
# and `dis`; `importlib.resources` costs 9 to 19 ms and on 3.12 and 3.13 loads `inspect` itself
UNWANTED = ("dataclasses", "inspect", "importlib.resources")


def absolute_imports(nodes):
    """(module, names) of each absolute import statement among `nodes`; `import m` gives no names."""
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from ((alias.name, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module, tuple(alias.name for alias in node.names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_no_unwanted_module(path):
    imported = {full for module, names in absolute_imports(ast.walk(ast.parse(path.read_text())))
                for full in (module, *(f"{module}.{name}" for name in names))}
    assert not imported & set(UNWANTED), f"{path.name} imports {sorted(imported & set(UNWANTED))}"


def unwanted_after(code: str) -> set[str]:
    """The UNWANTED modules loaded once `code` has run in a fresh interpreter without `site`."""
    probe = f"{code}\nimport sys\nprint(*(m for m in {UNWANTED!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(MODULES[0].parent.parent)}
    run = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return set(run.stdout.split())


def test_cli_import_loads_no_unwanted_module():
    # a baseline importing every stdlib module the package imports at module level, but the unwanted, shows what
    # the standard library loads on its own in this Python version; the cli may load nothing beyond it
    stdlib = {module for path in MODULES for module, _ in absolute_imports(ast.parse(path.read_text()).body)
              if module.split(".")[0] in sys.stdlib_module_names and module not in UNWANTED}
    baseline = unwanted_after("".join(f"import {module}\n" for module in sorted(stdlib)))
    loaded = unwanted_after("import apsumset.cli")
    assert loaded <= baseline, f"import apsumset.cli loads {sorted(loaded - baseline)}"
