"""One alternating-projection round trip for pure feasibility questions.

The round trip is the first sweep of Dykstra's method (Boyle-Dykstra
1986), whose correction term is still zero: from the affine set's
least-norm point x0 it clips to the PSD cone, y = P_PSD(x0) (Higham
1988), and projects back, x = P_A(y).  The iterate is kept as a matrix
in the program's field: real symmetric float64 when the program's data
is real (``SdpProblem.real``), complex Hermitian otherwise.  The one
block must be the variable itself: ``sdp.solve`` without ``optimum``
sends the k-extension, compat and two-marginal programs here, not the
full PPT or the Jordan program.  The affine step reads y's coordinates
(``linalg.herm_to_vec``), applies the orthonormal constraint-row basis
from the elimination the interior-point compile also uses
(``problem._eliminate``, from an eigendecomposition of the constraint
Gram matrix K K^T, cached per problem structure) as two matvecs, and
subtracts the correction as a matrix (``vec_to_herm``).  One ``eigh``
makes most of its cost.

x is a point when its least eigenvalue is at least ``-PSD_TOL``.
Otherwise W = y - x is the clip's displacement from the affine set: it
lies in the range of the constraint adjoints, since x is y's projection,
and so does W + sI (I = Tr_c^*(I) for a partial-trace constraint).  So W
shifted to PSD and scaled to trace 1 is a dual whose pairing bounds the
optimum t from above; it refutes when it pairs with x at or below
``-DECISION_TOL`` (on an infeasible program the iterates of later
sweeps would approach the nearest pair of the two sets, where W pairs
with every affine point at -|W|^2; Bauschke-Borwein 1994).
``sdp.solve`` checks it, as every certificate, by ``problem.certify``,
and runs the interior point, stopped at its first certified iterate,
where the round trip settles neither.

Over the 63 grid-6 xi points at k = 2, 3 and 4, the round trip settles
31 (12 points, 19 refutations).  Seven more sweeps settled 4 more at 7
times the eigendecompositions, and the early-stopped interior point
settles those too.  At k = 3 it refutes all 8 infeasible points, and at
k = 4 and 5 it refutes 8 of 9; the interior point refutes
xi(0.4, 0.2).  Those 63 solves take about 97 ms with the round trip in
front, 118 ms with eight sweeps and 136 ms with the early-stopped
interior point alone (median of 11 rounds, 1 BLAS thread).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..linalg import herm_to_vec, vec_to_herm
from ..tolerances import DECISION_TOL, PSD_TOL
from .problem import SdpProblem, _eliminate


@dataclass
class ProjectionResult:
    feasible: bool
    x: np.ndarray  # the iterate X, side x side, in the program's field
    violation: float
    iterations: int  # round trips, always 1
    certificate: Optional[np.ndarray] = None  # a trace-1 Farkas dual W, when refuted


def solve_dykstra(problem: SdpProblem) -> ProjectionResult:
    """Run one round trip x0 -> PSD clip y -> affine projection x and report
    x, feasible when its PSD violation is at most ``PSD_TOL``, or else with
    the Farkas dual read from y - x, when one refutes."""
    if not problem.one_block_is_x:
        raise ValueError("the round trip supports one PSD block, the variable itself")

    side = problem.side
    st, x0 = _eliminate(problem)
    real = st.real
    rows = st.vh  # orthonormal row-space basis, (r, P), shared by the structure
    c_rows = rows @ x0

    def violation_of(x):
        return max(0.0, -float(np.linalg.eigvalsh(x).min()))

    w, v = np.linalg.eigh(vec_to_herm(x0, side, real))
    y = (v * np.maximum(w, 0.0)) @ v.conj().T
    x = y - vec_to_herm(rows.T @ (rows @ herm_to_vec(y, real) - c_rows), side, real)
    viol = violation_of(x)
    if viol <= PSD_TOL:
        return ProjectionResult(True, x, viol, 1)
    # y - x shifted to PSD and scaled to trace 1 refutes if it pairs with x,
    # a point of the affine set, at or below -DECISION_TOL
    w = y - x
    w = w + violation_of(w) * np.eye(side)
    trace = float(np.trace(w).real)
    refuted = trace > 0 and float(np.vdot(w, x).real) <= -DECISION_TOL * trace
    return ProjectionResult(False, x, viol, 1, w / trace if refuted else None)
