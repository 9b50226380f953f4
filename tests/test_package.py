"""The public names of the package, and no import or private function in
it that nothing uses."""

import ast
import dataclasses
import inspect
from pathlib import Path

import nuqmc
import nuqmc.discrepancy
import nuqmc.measures

#: Public entry points that were removed: the ``cdf``/``cdf_one_sided``
#: methods and ``one_sided_deviation`` read a measure at a corner instead,
#: and ``DiscreteSignedMeasure(d, locations, weights)`` takes arrays, not
#: ``Atom`` objects.
RETIRED = ["cdf_eval", "cdf_one_sided", "local_discrepancy", "Atom"]


def test_every_export_resolves_once():
    assert len(nuqmc.__all__) == len(set(nuqmc.__all__))
    missing = [name for name in nuqmc.__all__ if not hasattr(nuqmc, name)]
    assert missing == []


def test_retired_names_are_gone():
    assert not set(RETIRED) & set(nuqmc.__all__)
    for module in (nuqmc, nuqmc.measures, nuqmc.discrepancy):
        assert [name for name in RETIRED if hasattr(module, name)] == [], module.__name__
    assert not hasattr(nuqmc.measures, "_limit_flags")


def test_signed_measures_have_one_constructor():
    retired = ["_from_arrays", "_init_arrays", "atoms"]
    assert [name for name in retired if hasattr(nuqmc.DiscreteSignedMeasure, name)] == []
    # the empirical measure of a PointSet is from_points(d, points, 1/N each)
    assert not hasattr(nuqmc.DiscreteMeasure, "empirical")


def test_conditional_cdf_has_no_strictness_flag():
    fields = {f.name for f in dataclasses.fields(nuqmc.ConditionalCdf2D)}
    assert "strictly_increasing" not in fields


_SOURCES = {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(Path(nuqmc.__file__).parent.glob("*.py"))}


def _used_names(tree) -> set[str]:
    """Every name the module reads, bare (``x``) or as an attribute (``.x``)."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for module, tree in _SOURCES.items():
        if module == "__init__":  # its imports are the package's exports
            continue
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{module}: {name}")
    assert unused == []


def test_every_private_function_is_called():
    used = set().union(*map(_used_names, _SOURCES.values()))
    private = [f"{module}.{node.name}" for module, tree in _SOURCES.items() for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
               and not node.name.startswith("__") and node.name not in used]
    assert private == []


#: The kernel modules, the only ones whose private names another module may
#: import: the input rules and the distribution function of atoms
#: (``measures``), and the mixed differences (``variation``).  Any other
#: private name is its module's own, so a rule it holds has one owner.
KERNELS = {"measures", "variation"}


def test_private_names_are_imported_from_the_kernels_only():
    imports = []
    for module, tree in _SOURCES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "nuqmc"
                                                     or node.module.startswith("nuqmc.")):
                source = (node.module or "").rpartition(".")[2]
                imports += [f"{module} <- {source}.{alias.name}" for alias in node.names
                            if alias.name.startswith("_") and not alias.name.startswith("__")
                            and source not in KERNELS]
    assert imports == []


def test_the_atom_kernel_takes_no_seed():
    # the walk adds its carried row to a slab counted from zero
    assert "seed" not in inspect.signature(nuqmc.measures._prefix_table).parameters


def test_the_walk_imports_nothing_private_from_variation():
    private = [alias.name for node in ast.walk(_SOURCES["discrepancy"])
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").rpartition(".")[2] == "variation"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
