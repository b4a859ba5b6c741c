"""Dykstra alternating projections for pure feasibility questions.

Alternates between the affine set of the equality constraints and the
PSD cone.  The one block must be the variable itself; only the
k-extension programs of the sweeps and ``qcc self-compat`` come here.
The affine projection applies the orthonormal constraint-row basis from
the elimination the interior-point compile also uses
(``problem._eliminate``, from an eigendecomposition of the constraint
Gram matrix K K^T, cached per problem structure) as two matvecs.  The
method forfeits dual certificates: the outcome is Feasible with a
verified point, or Inconclusive.  On the qubit k-extension up to k = 7
it takes about as long per point as the standard-form interior point
where the program is feasible, and three or more times as long where it
is not, to end Inconclusive there.  A stalled violation (typical of
infeasible instances, where the iterates approach the positive gap
between the two sets) exits early.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..linalg import herm_to_vec, vec_to_herm
from .problem import SdpProblem, _eliminate

MAX_ITER = 50000
FEAS_PSD_TOL = 1e-9
CHECK_EVERY = 8
STALL_WINDOW = 400
STALL_FACTOR = 0.95  # require >= 5 percent improvement per window


@dataclass
class ProjectionResult:
    feasible: bool
    params: np.ndarray
    violation: float
    iterations: int


def solve_dykstra(problem: SdpProblem) -> ProjectionResult:
    """Project until the PSD violation is at most ``FEAS_PSD_TOL``, checking
    every ``CHECK_EVERY`` sweeps, for at most ``MAX_ITER`` sweeps; all three
    are read at call time."""
    if [block.kind for block in problem.blocks] != ["identity"]:
        raise ValueError("projection mode supports one PSD block, the variable itself")

    side = problem.side
    st, x0 = _eliminate(problem)
    rows = st.vh  # orthonormal row-space basis, (r, P), shared by the structure
    c_rows = rows @ x0

    def proj_affine(x):
        return x - rows.T @ (rows @ x - c_rows)

    def proj_psd(x):
        w, v = np.linalg.eigh(vec_to_herm(x, side))
        return herm_to_vec((v * np.maximum(w, 0.0)) @ v.conj().T)

    def violation_of(x):
        return max(0.0, -float(np.linalg.eigvalsh(vec_to_herm(x, side)).min()))

    x = x0
    increment = np.zeros(x.size)
    best = x
    best_viol = violation_of(x)
    window_best = best_viol
    it = 0
    for it in range(1, MAX_ITER + 1):
        y = proj_psd(x + increment)
        increment = x + increment - y
        x = proj_affine(y)
        if it % CHECK_EVERY == 0 or it == MAX_ITER:
            viol = violation_of(x)
            if viol < best_viol:
                best, best_viol = x, viol
            if viol <= FEAS_PSD_TOL:
                return ProjectionResult(True, x, viol, it)
            if it % STALL_WINDOW == 0:
                if best_viol > window_best * STALL_FACTOR and best_viol > 100 * FEAS_PSD_TOL:
                    break
                window_best = best_viol
    return ProjectionResult(False, best, best_viol, it)
