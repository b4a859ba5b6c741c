"""Dykstra alternating projections for pure feasibility questions.

Alternates between the affine set of the equality constraints and the
PSD cone (Boyle-Dykstra), with the iterate kept as the matrix X, in the
program's field: real symmetric float64 when the program's data is
real (``SdpProblem.real``), complex Hermitian otherwise.  The one block
must be the variable itself; only the k-extension programs of the
sweeps and ``qcc self-compat`` come here.  The PSD step clips X's
negative eigenvalues (Higham 1988).  The affine step reads X's
coordinates (``linalg.herm_to_vec``), applies the orthonormal
constraint-row basis from the elimination the interior-point compile
also uses (``problem._eliminate``, from an eigendecomposition of the
constraint Gram matrix K K^T, cached per problem structure) as two
matvecs, and subtracts the correction as a matrix (``vec_to_herm``).
At side 32 (qubit k = 4, 1 BLAS thread, best of 5 x 2000) a sweep of
the real ``xi_channel(0.4, 0.5)`` program takes about 130 us: ``eigh``
83 us, the clip's matrix product 7 us and the affine step 25 us (8 us
of matvecs with 31 x 528 rows, the rest coordinate conversions).  Its
complex phase-conjugated twin takes 210 us: ``eigh`` 130 us, the clip
16 us and the affine step 43 us (21 us of matvecs with 52 x 1024
rows).  So ``eigh`` is the floor in either field.  The method forfeits
dual certificates: the outcome is Feasible with a point that
``sdp.solve`` re-checks, or Inconclusive.  On the qubit k-extension at
k = 4 it settles the feasible ``xi_channel(0.4, 0.5)`` in about 0.01 s
(80 sweeps; the interior point: 0.02 s) and spends 0.09 s on the
infeasible ``xi_channel(0.1, 0.3)`` to end Inconclusive, where the
interior point refutes it in 0.01 s (best of 5, 1 BLAS thread).  A
stalled violation (typical of infeasible instances, where the iterates
approach the positive gap between the two sets) exits early.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..linalg import herm_to_vec, vec_to_herm
from .problem import FEAS_PSD_TOL, SdpProblem, _eliminate

MAX_ITER = 50000
CHECK_EVERY = 8
STALL_WINDOW = 400
STALL_FACTOR = 0.95  # require >= 5 percent improvement per window


@dataclass
class ProjectionResult:
    feasible: bool
    x: np.ndarray  # the iterate X, side x side, in the program's field
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
    real = st.real
    rows = st.vh  # orthonormal row-space basis, (r, P), shared by the structure
    c_rows = rows @ x0

    def proj_affine(x):
        return x - vec_to_herm(rows.T @ (rows @ herm_to_vec(x, real) - c_rows), side, real)

    def proj_psd(x):
        w, v = np.linalg.eigh(x)
        return (v * np.maximum(w, 0.0)) @ v.conj().T

    def violation_of(x):
        return max(0.0, -float(np.linalg.eigvalsh(x).min()))

    x = vec_to_herm(x0, side, real)
    increment = np.zeros_like(x)
    best = x
    best_viol = violation_of(x)
    window_best = best_viol
    it = 0
    for it in range(1, MAX_ITER + 1):
        z = x + increment
        y = proj_psd(z)
        increment = z - y
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
