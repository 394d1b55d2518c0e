"""The modules form layers: each imports only the modules below it, so the
rank oracle never reaches a closed form and can refute one."""

import ast
from pathlib import Path

import pytest

import nonkoszul

PACKAGE = Path(nonkoszul.__file__).parent

ALLOWED = {
    "modp": set(),
    "monomials": {"modp"},
    "linalg": {"modp"},
    "oracle": {"linalg", "modp", "monomials"},
    "formulas": {"modp", "monomials", "oracle"},
    "verify": {"formulas", "modp", "monomials", "oracle"},
    "cli": {"formulas", "oracle", "verify"},
}


def package_imports(path: Path) -> set[str]:
    """The sibling modules a module imports, relatively or by full name."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "nonkoszul":
                    continue
                module = module.partition(".")[2]
            if module:
                out.add(module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("nonkoszul."))
    return out


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ALLOWED)


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_lower_layers(module):
    imported = package_imports(PACKAGE / f"{module}.py")
    assert imported <= ALLOWED[module], imported - ALLOWED[module]


def test_exports_are_the_imported_names():
    # a deleted or renamed function cannot stay listed in __all__
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert set(nonkoszul.__all__) == imported
    assert len(nonkoszul.__all__) == len(imported)
    for name in nonkoszul.__all__:
        assert getattr(nonkoszul, name) is not None


def test_import_parser_sees_every_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from .oracle import mult_map\n"
                    "from . import formulas\n"
                    "from nonkoszul.verify import run_grid\n"
                    "import nonkoszul.cli\n"
                    "import numpy as np\n")
    assert package_imports(path) == {"oracle", "formulas", "verify", "cli"}
