"""Small dense SDP engine plus builders and deciders for compatibility questions."""

from __future__ import annotations

import numpy as np

from ..witness import DECISION_TOL
from .builders import (
    build_compat,
    build_jordan_compat,
    build_k_extension,
    build_povm_compat,
    build_state_compat,
    two_marginal_problem,
)
from .ipm import solve_ipm
from .problem import SdpOutcome, SdpProblem, compile_ipm, primal_failure
from .projection import solve_dykstra

# caps on the side of the complex variable, checked before compiling
IPM_SIDE_CAP = 256
PROJECTION_SIDE_CAP = 1024


class SizeCapError(ValueError):
    """The problem is larger than the solver's dense-size cap."""


def _check_cap(problem: SdpProblem, cap: int, solver: str) -> None:
    if problem.side > cap:
        raise SizeCapError(f"{solver} cap is a variable side of {cap}, got {problem.side}")


def _complex(arr: np.ndarray) -> np.ndarray:
    return np.asarray(arr, dtype=np.complex128)


def solve(problem: SdpProblem, mode: str = "interior_point") -> SdpOutcome:
    """Solve a compatibility program.

    interior_point maximizes t and reports Feasible/Infeasible by the sign
    of the optimum (within ``DECISION_TOL``), with dual multipliers for
    certificate extraction, or Inconclusive with the solver's note when
    it did not converge.  projection runs Dykstra alternating
    projections and reports Feasible with a primal point, re-checked by
    ``primal_failure`` against the problem itself, or Inconclusive with
    the reason.  Real programs (``SdpProblem.real``) are solved over
    real symmetric matrices; the outcome's matrices are complex128
    either way.
    """
    if mode == "interior_point":
        _check_cap(problem, IPM_SIDE_CAP, "interior-point")
        comp = compile_ipm(problem)
        res = solve_ipm(comp.C_blocks, comp.A_blocks, comp.b, comp.Z0, comp.schur)
        alpha = comp.value(res)
        residuals = {
            "primal": res.res_primal,
            "dual": res.res_dual,
            "gap": res.rel_gap,
            "dual_objective": comp.dual_objective(res),
            "removed_redundant_rows": comp.removed_redundant,
            "dropped_directions": comp.dropped_directions,
            "chol_fallbacks": res.chol_fallbacks,
        }
        if not res.converged:
            return SdpOutcome("Inconclusive", alpha, residuals=residuals,
                              iterations=res.iterations, note=res.note)
        note = "optimum inside the decision band" if abs(alpha) < DECISION_TOL else ""
        status = "Feasible" if alpha >= -DECISION_TOL else "Infeasible"
        return SdpOutcome(status, alpha, primal=_complex(comp.primal(res)),
                          dual=_complex(comp.certificate(res)), residuals=residuals,
                          iterations=res.iterations, note=note)

    if mode == "projection":
        _check_cap(problem, PROJECTION_SIDE_CAP, "projection")
        res = solve_dykstra(problem)
        residuals = {"psd_violation": res.violation}
        note = (primal_failure(problem, res.x) if res.feasible
                else "projection did not reach feasibility")
        if note:
            return SdpOutcome("Inconclusive", float("nan"), residuals=residuals,
                              iterations=res.iterations, note=note)
        return SdpOutcome("Feasible", 0.0, primal=_complex(res.x), residuals=residuals,
                          iterations=res.iterations, note="projection mode: feasibility only")

    raise ValueError(f"unknown mode {mode!r}")


__all__ = [
    "DECISION_TOL",
    "SdpOutcome",
    "SdpProblem",
    "SizeCapError",
    "build_compat",
    "build_jordan_compat",
    "build_k_extension",
    "build_povm_compat",
    "build_state_compat",
    "two_marginal_problem",
    "solve",
    "solve_dykstra",
    "solve_ipm",
]
