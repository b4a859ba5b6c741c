"""Dykstra alternating projections for pure feasibility questions.

Alternates between the affine set of the equality constraints and the
PSD cone (Boyle-Dykstra), with the iterate kept as the matrix X, in the
program's field: real symmetric float64 when the program's data is
real (``SdpProblem.real``), complex Hermitian otherwise.  The one block
must be the variable itself; only the k-extension programs of the
``xi_self_k`` sweep come here.  The PSD step clips X's
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
rows).  So ``eigh`` is the floor in either field.

Projection only settles what it settles quickly: ``sdp.solve`` runs
``SWEEPS`` sweeps and solves by the interior point when they end with
neither a point nor a refutation, stopping at the first iterate whose
point or trace-1 dual passes ``problem.certify``.  The sweeps stay in
front because they are the cheaper answer where they settle: over the
grid-6 xi points at k = 2, 3 and 4, sweeps then the early-stopping
interior point take 24, 40 and 73 ms in all, that interior point alone
28, 50 and 97 ms, and the converged interior point 62, 111 and 204 ms
(best of 5, 1 BLAS thread).  After the last sweep the affine
iterate x is a point when its least eigenvalue is at least
``-PSD_TOL``.  Otherwise the PSD iterate y and x = P_A(y) converge, on
an infeasible program, to the nearest pair of the two sets
(Bauschke-Borwein 1994), where W = y - x is PSD, orthogonal to y, and
pairs with every point of the affine set at -|W|^2 < 0.  W lies in the
range of the constraint adjoints, since x is y's projection, and so
does W + sI (I = Tr_c^*(I) for a partial-trace constraint), so W
shifted to PSD and scaled to trace 1 is a dual whose pairing bounds the
optimum t from above; it refutes when it pairs at or below
``-DECISION_TOL``.  ``sdp.solve`` checks it, as every certificate, by
``problem.certify``.  Over the grid-6 xi points at k = 3, 4 and 5 every
infeasible point is refuted at sweep 8; on the qubit k-extension at
k = 4 the refutation of ``xi_channel(0.1, 0.3)`` takes 1.3 ms (the
interior point: 8 ms; best of 5, 1 BLAS thread).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..linalg import herm_to_vec, vec_to_herm
from ..tolerances import DECISION_TOL, PSD_TOL
from .problem import SdpProblem, _eliminate

SWEEPS = 8


@dataclass
class ProjectionResult:
    feasible: bool
    x: np.ndarray  # the iterate X, side x side, in the program's field
    violation: float
    iterations: int
    certificate: Optional[np.ndarray] = None  # a trace-1 Farkas dual W, when refuted


def solve_dykstra(problem: SdpProblem) -> ProjectionResult:
    """Project for ``SWEEPS`` sweeps (read at call time) and report the last
    affine iterate, feasible when its PSD violation is at most ``PSD_TOL``,
    or else with the Farkas dual, when one refutes."""
    if [block.kind for block in problem.blocks] != ["identity"]:
        raise ValueError("projection mode supports one PSD block, the variable itself")

    side = problem.side
    st, x0 = _eliminate(problem)
    real = st.real
    rows = st.vh  # orthonormal row-space basis, (r, P), shared by the structure
    c_rows = rows @ x0

    def violation_of(x):
        return max(0.0, -float(np.linalg.eigvalsh(x).min()))

    x = vec_to_herm(x0, side, real)
    increment = np.zeros_like(x)
    for _ in range(SWEEPS):
        z = x + increment
        w, v = np.linalg.eigh(z)
        y = (v * np.maximum(w, 0.0)) @ v.conj().T
        increment = z - y
        x = y - vec_to_herm(rows.T @ (rows @ herm_to_vec(y, real) - c_rows), side, real)
    viol = violation_of(x)
    if viol <= PSD_TOL:
        return ProjectionResult(True, x, viol, SWEEPS)
    # y - x shifted to PSD and scaled to trace 1 refutes if it pairs with x,
    # a point of the affine set, at or below -DECISION_TOL
    w = y - x
    w = w + violation_of(w) * np.eye(side)
    trace = float(np.trace(w).real)
    refuted = trace > 0 and float(np.vdot(w, x).real) <= -DECISION_TOL * trace
    return ProjectionResult(False, x, viol, SWEEPS, w / trace if refuted else None)
