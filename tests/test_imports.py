"""Every module of the package uses each name it imports, and exports what it lists.

No linter is a dependency, so this walks the syntax tree: a name imported
by a module under ``src/gibbsgap`` (other than the re-exporting
``__init__.py``) must appear in its code or in its ``__all__``.  The
package namespace is the union of the modules' ``__all__`` lists, so those
lists are pinned here too.
"""

import ast
import importlib
from pathlib import Path

import pytest

import gibbsgap

SRC = Path(__file__).resolve().parent.parent / "src" / "gibbsgap"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_is_reported():
    tree = ast.parse("import math\nfrom os import path, sep\nprint(sep)\n")
    assert _unused_imports(tree) == ["math", "path"]


#: The package's public names; a name dropped from its module's list would vanish silently.
PUBLIC = {
    "AlphaOutOfRange", "Check", "ConditionalFamily", "CostTable", "DuplicatePoint",
    "EmptySupport", "FiniteMeasure", "FreeEnergySplit", "GapDecomposition", "GibbsGapError",
    "GibbsResult", "GridDensity", "GridSupport", "IndexMismatch", "InfiniteDivergence",
    "InfiniteLogPartition", "InfoSummary", "Measure", "MutualContinuityViolated",
    "NegativeWeight", "NonConvergence", "NonFiniteExpectation", "NonFiniteValue",
    "NonProbabilityMeasure", "NotAbsolutelyContinuous", "PointSupport",
    "RepresentationMismatch", "Scenario", "ScenarioError", "ZeroMass",
    "absolutely_continuous", "atom_masses", "conditional_entropy", "constant_family",
    "counting_measure", "differential_entropy", "expectation", "expected_gap_closed_form",
    "expected_gap_direct", "expected_gap_relative", "free_energy_identities",
    "gap_closed_form", "gap_closed_form_relative", "gap_direct", "gap_mixture_reference",
    "generate_scenarios", "gibbs_marginal_gap", "gibbs_tilt", "info_summary", "kl",
    "lautum_information", "lebesgue_grid", "load_scenario", "log_partition",
    "make_finite_measure", "make_grid_density", "marginal_gap", "marginal_y", "mix",
    "mutual_information", "radon_nikodym", "render_json", "render_text", "run_scenario",
    "run_scenario_file", "shannon_entropy", "total_mass", "variational_oracle",
}


def test_the_package_exports_its_public_names():
    assert len(PUBLIC) == 68
    assert set(gibbsgap.__all__) == PUBLIC
    assert gibbsgap.__all__ == sorted(PUBLIC)


#: The modules whose ``__all__`` the package re-exports with ``from .module import *``.
EXPORTING = sorted(
    node.module for node in ast.parse((SRC / "__init__.py").read_text()).body
    if isinstance(node, ast.ImportFrom) and [a.name for a in node.names] == ["*"])


def test_the_package_is_the_union_of_its_modules_lists():
    assert EXPORTING == ["divergences", "errors", "gaps", "gibbs", "measures", "scenario"]
    exported = {n for m in EXPORTING for n in importlib.import_module(f"gibbsgap.{m}").__all__}
    assert exported == set(gibbsgap.__all__)


@pytest.mark.parametrize("name", EXPORTING)
def test_module_all_is_a_literal_list_of_its_own_names_in_the_package(name):
    tree = ast.parse((SRC / f"{name}.py").read_text())
    (node,) = [n for n in tree.body if isinstance(n, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "__all__" for t in n.targets)]
    assert isinstance(node.value, ast.List)  # the unused-import check above reads its entries
    assert all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.value.elts)
    names = [e.value for e in node.value.elts]
    module = importlib.import_module(f"gibbsgap.{name}")
    assert len(set(names)) == len(names) and names == module.__all__
    assert set(names) <= set(gibbsgap.__all__)
    for n in names:  # bound in the module, and the very object the package exports
        assert getattr(gibbsgap, n) is getattr(module, n)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_class_has_a_docstring(path):
    # a dataclass without one has inspect.signature write it at import time
    classes = [n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.ClassDef)]
    assert [c.name for c in classes if ast.get_docstring(c) is None] == []
