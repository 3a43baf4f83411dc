"""Static checks of the package surface, read from the sources with the ast module.

No linter is installed with the package, so these checks stand in for one:
the names `augtest` exports are pinned, no module imports a name it never
uses, and no module defines a function or class nothing uses.
"""

import ast
import os
import re
import subprocess
import sys
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
    flatten_distribution_explicit flattened_axis_view flattened_joint_view
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
    assert len(EXPORTS) == 55
    assert exported == EXPORTS
    assert all(hasattr(augtest, name) for name in exported)
    assert "outer_product" not in exported  # shared by the modules, not public


def test_importing_augtest_leaves_numpy_random_unloaded():
    # Rng builds its generators' seed class on first use, so the import
    # stays off numpy.random, which numpy loads lazily; the trial harness
    # talks to its forked workers over os.pipe()s, with no multiprocessing.
    code = (
        "import sys, augtest;"
        " print(sorted(m for m in sys.modules if m.startswith(('numpy.random', 'multiprocessing'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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


@pytest.mark.parametrize(
    "path", sorted(p.name for p in PACKAGE.glob("*.py") if p.name not in ("__init__.py", "domain.py"))
)
def test_only_domain_formats_a_range_message(path):
    # every "must be in (lo, hi]" check goes through domain._check_finite's
    # interval, so each message keeps one spelling and one finite check
    tree = ast.parse((PACKAGE / path).read_text())
    messages = [
        f"line {node.lineno}: {text.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        for text in ast.walk(node)
        if isinstance(text, ast.Constant) and isinstance(text.value, str) and re.search(r"must be in [(\[]", text.value)
    ]
    assert messages == []


def _asks_for_a_law(node: ast.AST) -> bool:
    """Whether node compares a `probs` or `dist` (an attribute, a name or a
    getattr of one) with None."""
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]

    def name(x):
        if isinstance(x, ast.Call) and len(x.args) >= 2 and isinstance(x.args[1], ast.Constant):
            return x.args[1].value  # getattr(obj, "dist", None)
        return getattr(x, "attr", getattr(x, "id", None))

    law = any(name(x) in ("probs", "dist") for x in operands)
    return law and any(isinstance(x, ast.Constant) and x.value is None for x in operands)


def test_estimators_choose_a_draw_mode_in_three_places():
    # Whether a view exposes its law, or a sampler its distribution, is asked
    # only where a batch is drawn: by the norm's statistics, the closeness
    # count kernel and learn_empirical. A helper that asks again writes a
    # draw mode a second time.
    tree = ast.parse((PACKAGE / "estimators.py").read_text())
    askers = sorted(
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and any(_asks_for_a_law(n) for n in ast.walk(node))
    )
    assert askers == ["_norm_statistics", "_poissonized_counts", "learn_empirical"]
