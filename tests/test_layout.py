"""The package holds what the program runs.

A public function, class or method of ``src/splitannulus`` stays there
only if package code outside its own definition reads it, a file under
``perfbench/`` names it, or README's "Library API" list names it as
``module.name``.  A residual that only tests call lives in the test
module that calls it, or in ``tests/oracles.py`` when two modules do.

The W-volume pipeline and the action pipeline import nothing of each
other's computations, so that their agreement stays a check.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "splitannulus"


def _public_defs(tree):
    """(qualified name, bare name, node) of every public top-level
    function and class and every public method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub.name, sub


def _reads(tree):
    """(name, node) of every name and attribute the module loads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node


def _library_api(readme):
    """The ``module.name`` that opens each bullet of README's "Library
    API" section."""
    section = re.search(r"^### Library API\n(.*?)(?=^#|\Z)", readme, re.M | re.S)
    if section is None:
        return set()
    return set(re.findall(r"^[-*] `(\w+(?:\.\w+)+)`", section.group(1), re.M))


def unreached(sources, perfbench_text, api):
    """The ``module.qualname`` of every public definition in ``sources``
    (module name -> source text) that no rule keeps."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = [(name, node) for tree in trees.values() for name, node in _reads(tree)]
    out = []
    for module, tree in trees.items():
        for qualname, name, node in _public_defs(tree):
            own = {id(n) for n in ast.walk(node)}
            if any(n == name and id(r) not in own for n, r in reads):
                continue
            if re.search(rf"\b{name}\b", perfbench_text):
                continue
            if f"{module}.{qualname}" in api:
                continue
            out.append(f"{module}.{qualname}")
    return out


def _package():
    return {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}


def _perfbench_text():
    files = sorted((ROOT / "perfbench").rglob("*"))
    return "\n".join(p.read_text() for p in files if p.suffix in (".py", ".md"))


def _readme_api():
    return _library_api((ROOT / "README.md").read_text())


def test_every_public_name_is_run_traced_or_library_api():
    assert unreached(_package(), _perfbench_text(), _readme_api()) == [], (
        "move a residual that only tests call into the test module that "
        "calls it (tests/oracles.py when two do), or name it in README's "
        "Library API list with the paper object it computes")


def test_library_api_names_only_what_the_package_defines():
    defined = {f"{module}.{qualname}" for module, text in _package().items()
               for qualname, _, _ in _public_defs(ast.parse(text))}
    api = _readme_api()
    assert api and api <= defined, sorted(api - defined)


def test_a_test_only_residual_added_back_is_caught():
    sources = _package()
    sources["liouville"] += (
        "\n\ndef dal_variation_bound(f, grid):\n"
        "    return grid.integrate(lambda x, y: np.abs(f.jet(x, y).vxy))\n")
    got = unreached(sources, _perfbench_text(), _readme_api())
    assert got == ["liouville.dal_variation_bound"]


# The W-volume (``adsgeom``, ``forms``) and the action (``liouville``) are
# each other's oracle, so neither may compute with the other's code, and
# ``liouville`` takes nothing from ``curves``, which builds on it: the
# package module -> the names it may import from each guarded module
# (empty: none), read from its imports at any depth.
INDEPENDENT = {
    "liouville": {"adsgeom": set(), "forms": set(), "curves": set()},
    "forms": {"liouville": {"ActionValue", "refinement_trail"}},
}


def package_imports(tree):
    """(package module, name) of every import of the package in ``tree``;
    the name is None where the whole module is imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "splitannulus":
                    continue
                module = module.partition(".")[2]
            for alias in node.names:
                if module:
                    yield module.split(".")[0], alias.name
                else:  # ``from . import module``
                    yield alias.name, None
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "splitannulus" and len(parts) > 1:
                    yield parts[1], None


def crossings(sources):
    """``module <- imported.name`` for every import that ``INDEPENDENT``
    forbids."""
    out = []
    for module, allowed in INDEPENDENT.items():
        for imported, name in package_imports(ast.parse(sources[module])):
            if imported in allowed and name not in allowed[imported]:
                out.append(f"{module} <- {imported}.{name}")
    return out


def test_the_w_volume_and_the_action_stay_independent():
    assert crossings(_package()) == []


@pytest.mark.parametrize("module, line, crossing", [
    ("liouville", "from .adsgeom import pair", "liouville <- adsgeom.pair"),
    ("liouville", "from . import forms", "liouville <- forms.None"),
    ("liouville", "import splitannulus.curves", "liouville <- curves.None"),
    ("forms", "from .liouville import action_density",
     "forms <- liouville.action_density"),
    ("forms", "from splitannulus.liouville import ActionValue, _action",
     "forms <- liouville._action"),
], ids=["liouville_from_adsgeom", "liouville_module_forms", "liouville_import_curves",
        "forms_action_density", "forms_private_name"])
def test_an_import_across_the_oracles_is_caught(module, line, crossing):
    # added inside a function, where an import is easiest to miss
    sources = _package()
    sources[module] += f"\n\ndef _mutant():\n    {line}\n"
    assert crossings(sources) == [crossing]
