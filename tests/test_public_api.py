"""Static checks of the package surface, read from the sources with the ast module.

No linter is installed with the package, so these checks stand in for one:
the names `augtest` exports are pinned, no module imports a name it never
uses, and no module defines a function or class nothing uses.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import augtest

PACKAGE = Path(augtest.__file__).parent

EXPORTS = sorted(
    """
    AxisFlattening DomainError EstimatorConfig ExperimentConfig HardInstance JointDistribution
    JointSampler Outcome ProductFlattening Rng SampleAccount TesterConfig TesterHooks
    TrialRecord ValidityReport Verdict amplify aug_independence_2d aug_independence_3d
    aug_independence_d build_axis_flattening closeness_params closeness_test distribution_from_json
    distribution_to_json draw_samples embed_hard_to_d emit_report emit_sweep estimate_l2_squared
    flatten_distribution_explicit flattened_axis_view flattened_joint_view flattened_product_view
    gen_hard_2d gen_valid_hard_2d l2_norm_sq learn_empirical load_distribution marginal merge_axes
    merge_index partition_coordinates poisson poissonized_counts repetitions run_trials
    save_distribution split_axis summarize sweep_alpha test_independence_by_learning tv_distance
    tv_to_own_product validity_check wilson_interval
    """.split()
)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name a module's import statements bind, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def test_exports_are_pinned():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = sorted(_imported_names(tree))
    assert len(EXPORTS) == 56
    assert exported == EXPORTS
    assert all(hasattr(augtest, name) for name in exported)
    assert "outer_product" not in exported  # shared by the modules, not public


@pytest.mark.parametrize(
    "path", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_every_import_is_used(path):
    tree = ast.parse((PACKAGE / path).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(
        f"{name} (line {line})" for name, line in _imported_names(tree).items() if name not in used
    )
    assert unused == []


def _references(tree: ast.AST) -> Counter:
    """How often each name is read in tree, as a bare name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_definition_is_used():
    # a top-level function or class that is neither exported nor decorated
    # (click commands are) must be referenced somewhere in the package
    # outside its own body; code kept only for tests fails this
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    dead = [
        f"{path}: {node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.decorator_list
        and node.name not in EXPORTS
        and refs[node.name] == _references(node)[node.name]
    ]
    assert dead == []
