"""Small dense SDP engine plus builders and deciders for compatibility questions."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tolerances import DECISION_TOL
from .builders import (
    build_compat,
    build_jordan_compat,
    build_k_extension,
    build_povm_compat,
    build_state_compat,
    two_marginal_problem,
)
from .ipm import solve_ipm
from .problem import IPM_SIDE_CAP, SdpOutcome, SdpProblem, SizeCapError, certify, compile_ipm, side_text
from .projection import product_point, solve_dykstra


def _complex(arr: np.ndarray) -> np.ndarray:
    return np.asarray(arr, dtype=np.complex128)


def _iterate_candidate(comp, res) -> Optional[SdpOutcome]:
    """The certificate an unconverged interior-point iterate offers: the
    point X once its t = ``comp.value`` is at least ``-DECISION_TOL``, or
    else the dual, scaled to trace 1, once its bound ``comp.dual_objective``
    is at or below ``-DECISION_TOL``; None while it offers neither."""
    t = comp.value(res)
    if t >= -DECISION_TOL:
        return SdpOutcome("Feasible", t, primal=_complex(comp.primal(res)))
    if comp.dual_objective(res) <= -DECISION_TOL:
        dual = comp.certificate(res)
        return SdpOutcome("Infeasible", float("nan"),
                          dual=_complex(dual / np.trace(dual, axis1=-2, axis2=-1).real.sum()))
    return None


def solve(problem: SdpProblem, optimum: bool = True) -> SdpOutcome:
    """Solve a compatibility program, and report Feasible or Infeasible only
    with a certificate that passes ``problem.certify`` on ``problem``.

    With ``optimum`` (the default) the interior point maximizes t and
    reports Feasible/Infeasible by the sign of the optimum (within
    ``DECISION_TOL``), with the point X and the dual multipliers, or
    Inconclusive with the solver's note when it did not converge.  Without
    it the solve stops at its first certificate.  A program whose one
    block is X first tries its product point (``projection.product_point``,
    the paper's Jordan product of the right-hand sides), Feasible where it
    is PSD, and then one alternating-projection round trip
    (``projection.solve_dykstra``), Feasible with its point or Infeasible
    with the Farkas dual read from the iterates' displacement; where these
    settle neither, and on every other program, the interior point checks
    the candidate of each iterate (``_iterate_candidate``) and stops at
    the first that passes, or else converges.  Every candidate is checked
    once, and one that fails is dropped: the solve goes on to the next.
    An outcome with both X and a dual is a converged solve, and its value
    is the optimum; its check failing makes the solve Inconclusive, with
    the check's note and neither point nor dual.  One settled by a single
    certificate carries only that, and its note names its value: a
    point's is a lower bound on the optimum (t at an early-stopped
    iterate, 0 from the product point, with 0 iterations, or from the
    round trip), and a refutation's is the check's Farkas pairing, an
    upper bound.  An outcome whose residuals hold ``psd_violation`` came
    from the round trip.  The program's elimination
    (``SdpProblem.elimination``) is read first and computed once for the
    round trip, the compile and any later point read-out; inconsistent
    right-hand sides raise a ``ValueError`` there, before any candidate
    is taken.  A program whose variable
    side exceeds ``IPM_SIDE_CAP`` raises ``SizeCapError``.  Real programs
    (``SdpProblem.real``) are solved over real symmetric matrices; the
    outcome's matrices are complex128 either way.  A LAPACK routine that
    fails inside the solve (numpy's ``LinAlgError``, in the round trip,
    the compile, the interior point or a check) makes it Inconclusive,
    with a note that names the failure.
    """
    if problem.side > IPM_SIDE_CAP:
        raise SizeCapError(f"the size cap is a variable side of {IPM_SIDE_CAP}, "
                           f"got {side_text(problem.side)}")
    try:
        return _solve(problem, optimum)
    except np.linalg.LinAlgError as exc:
        return SdpOutcome("Inconclusive", float("nan"), note=f"LAPACK failure: {exc}")


def _product_candidate(problem: SdpProblem) -> Optional[SdpOutcome]:
    """The product point as a Feasible outcome, or None where it is not PSD."""
    x = product_point(problem)
    return None if x is None else SdpOutcome("Feasible", 0.0, primal=_complex(x), note="product point")


def _round_trip_candidate(problem: SdpProblem) -> Optional[SdpOutcome]:
    """The round trip's point or refutation, or None where it has neither;
    a refutation's value is set from its check."""
    res = solve_dykstra(problem)
    residuals = {"psd_violation": res.violation}
    if res.certificate is not None:
        return SdpOutcome("Infeasible", float("nan"), dual=_complex(res.certificate[None]),
                          residuals=residuals, iterations=res.iterations, note="round trip")
    if res.feasible:
        return SdpOutcome("Feasible", 0.0, primal=_complex(res.x), residuals=residuals,
                          iterations=res.iterations, note="round trip")
    return None


def _settled(out: SdpOutcome, report) -> SdpOutcome:
    """A single certificate's outcome that passed its check, with its value
    named: a point's is a lower bound, a refutation's is its pairing."""
    if out.primal is not None:
        out.note += ": the value is a lower bound on the optimum"
    else:
        out.value = report.margin
        out.note += ": the value is a Farkas pairing, an upper bound on the optimum"
    return out


def _solve(problem: SdpProblem, optimum: bool) -> SdpOutcome:
    """``solve`` on a program within the size cap."""
    problem.elimination  # inconsistent right-hand sides raise before any candidate
    if not optimum and problem.one_block_is_x:
        for candidate in (_product_candidate, _round_trip_candidate):
            out = candidate(problem)
            if out is not None:
                report = certify(problem, out)
                if report.valid:
                    return _settled(out, report)

    comp = compile_ipm(problem)
    passed = []  # the iterate candidate that passed its check, with the report

    def certified(iterate) -> bool:
        cand = _iterate_candidate(comp, iterate)
        if cand is None:
            return False
        check = certify(problem, cand)
        if check.valid:
            passed.append((cand, check))
        return check.valid

    res = solve_ipm(comp.C_blocks, comp.A_blocks, comp.b, comp.S0, comp.Z0, comp.schur,
                    None if optimum else certified)
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
    if passed:
        out, report = passed[0]
        out.residuals, out.iterations, out.note = residuals, res.iterations, res.note
        return _settled(out, report)
    if not res.converged:
        return SdpOutcome("Inconclusive", alpha, residuals=residuals,
                          iterations=res.iterations, note=res.note)
    note = "optimum inside the decision band" if abs(alpha) < DECISION_TOL else ""
    status = "Feasible" if alpha >= -DECISION_TOL else "Infeasible"
    out = SdpOutcome(status, alpha, primal=_complex(comp.primal(res)),
                     dual=_complex(comp.certificate(res)), residuals=residuals,
                     iterations=res.iterations, note=note)
    report = certify(problem, out)
    if not report.valid:
        return SdpOutcome("Inconclusive", alpha, residuals=residuals,
                          iterations=res.iterations, note=report.note)
    return out


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
    "product_point",
    "solve_dykstra",
    "solve_ipm",
]
