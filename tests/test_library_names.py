"""The library holds what `lab` runs: every public name is used by library code.

Each name in a module's `__all__` must be referenced in `src/hardylab` outside
its own definition, as a name, an attribute or an import; docstrings and
`__all__` are strings, not references.  A public name that only the tests
use belongs in `tests/scalar_oracles.py`, unless it is listed below with the
reason it stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hardylab"

# public names that no library code references, each with why it stays
ALLOWED_UNREFERENCED = {
    "grid.save_gridfunction": "writes the files that `lab norm` input.file reads",
    "atoms.save_decomposition": "writes the decompositions that `lab validate` reads",
    "maximal.convolve_dilated": "the benchmark's tracer times it by this name",
    "grid.ball_mean": "the benchmark's tracer times it by this name; the splits' degree-0 "
                      "projection (projection._fit) takes the mean by its rule",
    "oscillation.mean_oscillation": "the one-ball statistic whose sup the BMO norms take",
    "oscillation.jn_check": "the John-Nirenberg lemma check of the acceptance criteria",
    "product.pairing_limit_check": "the pairing-limit lemma check of the acceptance criteria",
    "product.duality_identity_check": "the duality lemma check of the acceptance criteria",
    "product.exp_class_product_bound": "the exponential-class lemma check of the acceptance criteria",
    "projection.projection_sup_ratio": "the projection lemma check of the acceptance criteria",
    "projection.campanato_ratio": "the Campanato lemma check of the acceptance criteria",
}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _references(tree: ast.Module) -> set[str]:
    """Identifiers a module reads as names, attributes or imports, except those
    inside the top-level definition of the same name."""
    found = set()
    for stmt in tree.body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                ident = node.id
            elif isinstance(node, ast.Attribute):
                ident = node.attr
            elif isinstance(node, ast.alias):
                ident = node.name
            else:
                continue
            if ident != owner:
                found.add(ident)
    return found


def _unreferenced() -> list[str]:
    modules = _modules()
    refs = {name: _references(tree) for name, tree in modules.items()}
    return [
        f"{module}.{name}"
        for module, tree in modules.items()
        if module != "__init__"
        for name in _exported(tree)
        if not any(name in found for found in refs.values())
    ]


def test_every_public_name_is_used_by_the_library():
    unreferenced = _unreferenced()
    assert sorted(set(unreferenced) - ALLOWED_UNREFERENCED.keys()) == []
    # an entry whose name is gone, or is now referenced, leaves the list
    assert sorted(ALLOWED_UNREFERENCED.keys() - set(unreferenced)) == []


def _linalg_references(tree: ast.Module) -> list[str]:
    """The identifiers of a module that name a `linalg` package, dotted or not:
    np.linalg.solve, from numpy import linalg, import scipy.linalg."""
    return sorted(ident for ident in _references(tree) if "linalg" in ident.split("."))


def test_no_module_references_linalg():
    """No library code reaches LAPACK through a `linalg` package: the fits are
    per-axis products and sums (projection._fit)."""
    assert {name: _linalg_references(tree) for name, tree in _modules().items()
            if _linalg_references(tree)} == {}
    for source in ("x = np.linalg.solve", "from numpy import linalg", "import scipy.linalg"):
        assert _linalg_references(ast.parse(source)), source


def test_references_skip_docstrings_all_and_own_definition():
    tree = ast.parse(
        '"""helper is named here."""\n'
        '__all__ = ["helper", "used"]\n'
        "def helper(x):\n"
        '    """helper, again."""\n'
        "    return helper(x - 1) if x else used\n"
        "def used():\n"
        "    return 0\n"
    )
    assert _exported(tree) == ["helper", "used"]
    refs = _references(tree)
    assert "used" in refs and "helper" not in refs
    assert {"grid", "GridSpec", "spacing"} <= _references(
        ast.parse("from . import grid\nfrom .grid import GridSpec\nh = grid.GridSpec(1, 1.0, 16).spacing\n")
    )
