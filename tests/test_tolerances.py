"""The tolerance table is the only home of the acceptance tolerances.

A lint over ``src/qcc``: no other module defines a module-level
``*_TOL``, ``*_CUTOFF``, ``*_CLAMP`` or ``*_COND`` name, and no float
literal between 1e-13 and 1e-6 sits in a comparison outside the
functions listed in ``ALGORITHM_CONSTANTS``.
"""

import ast
import re
from pathlib import Path

from qcc import tolerances

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qcc"
TABLE = SRC / "tolerances.py"
TOLERANCE_NAME = re.compile(r"_(TOL|CUTOFF|CLAMP|COND)$")

# (file, function): comparisons with literal thresholds that decide no
# acceptance.  The 2 x 2 measure-and-prepare decomposition's internal
# rank and closing cuts, the interior point's step-collapse test, and
# verify-paper's comparisons of printed values with their expected ones.
ALGORITHM_CONSTANTS = {
    ("channels.py", "measure_prepare_decomposition"),
    ("channels.py", "_takagi"),
    ("sdp/ipm.py", "solve_ipm"),
    ("verify.py", "_eig_pair_structure"),
    ("verify.py", "run_checks"),
}


def _modules():
    return sorted(p for p in SRC.rglob("*.py") if p != TABLE)


def _assigned_names(node):
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


class _ComparedLiterals(ast.NodeVisitor):
    """(qualified function, line) of each float literal with
    1e-13 <= |value| <= 1e-6 inside a comparison."""

    def __init__(self):
        self.scope = []
        self.hits = []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_Compare(self, node):
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Constant) and isinstance(sub.value, float)
                    and 1e-13 <= abs(sub.value) <= 1e-6):
                self.hits.append((".".join(self.scope) or "<module>", sub.lineno))


def _compared_literals():
    for path in _modules():
        finder = _ComparedLiterals()
        finder.visit(ast.parse(path.read_text()))
        rel = path.relative_to(SRC).as_posix()
        for func, line in finder.hits:
            yield rel, func, line


def test_tolerance_names_are_defined_only_in_the_table():
    offenders = [f"{path.relative_to(SRC)}: {name}"
                 for path in _modules()
                 for node in ast.parse(path.read_text()).body
                 for name in _assigned_names(node) if TOLERANCE_NAME.search(name)]
    assert offenders == []


def test_no_tolerance_literal_in_a_comparison_outside_the_allow_list():
    offenders = [f"{rel}:{line} in {func}" for rel, func, line in _compared_literals()
                 if (rel, func) not in ALGORITHM_CONSTANTS]
    assert offenders == []


def test_allow_list_has_no_stale_entry():
    seen = {(rel, func) for rel, func, _ in _compared_literals()}
    assert ALGORITHM_CONSTANTS <= seen


def test_table_imports_nothing():
    tree = ast.parse(TABLE.read_text())
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


def test_benchmark_certificate_tolerance_is_the_decision_tolerance():
    # perfbench re-checks certificates at its own copy; read, not imported
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    values = [ast.literal_eval(node.value) for node in tree.body
              if "CERT_TOL" in _assigned_names(node)]
    assert values == [tolerances.DECISION_TOL]
