"""Three-valued compatibility decisions backed by verified certificates.

A Compatible verdict carries a point (a compatibilizer Choi matrix, or
the operator A behind a generalized Jordan product) and an Incompatible
verdict a witness; the two never coexist.  ``sdp.solve`` reports a
Feasible or Infeasible solve only with its point or Farkas certificate
checked on the program it solved (``problem.certify``), so a
compatibilizer is a Feasible solve's point as it stands.  The other
certificates are read out over the program they certify, as its
``multipliers`` (a witness) or ``project_point`` (the operator A), by the
functions beside their type in ``qcc.witness`` and ``qcc.jordan``, and
checked on that program: A by ``primal_check``, a witness by
``verify_witness`` or ``verify_jordan_witness`` in the form the Decision
hands out.  When the solver or a check fails the verdict is Inconclusive,
with the reason in ``note``.

A verdict needs one certificate, not the optimum, so each solve stops at
its first (``sdp.solve(problem, optimum=False)``): ``Decision.value`` is
then the bound that certificate gives, named in ``outcome.note``.  The
first candidate of a compat solve is its product point, the Choi matrix
of the pair's standard Jordan product (the paper's Jordan-product
compatibilizer): Compatible at value 0 where it is CP and passes the
check.  The PPT relaxation's solve tries its own product point first.
With ``optimum=True`` every solve converges and the value is the
optimum.

Jordan mode solves the compat program when both channels are invertible
as linear maps: the substitution X = (id (x) f (x) g)(A) maps the Jordan
program onto it with the same t, since the trace-preserving maps carry
the identity-Choi marginals of A onto J(f) and J(g) and their inverses
carry them back.  A is read out of the compatibilizer through the inverse
maps and the Jordan witness out of the compat dual, both over the Jordan
program, built once per decision.  When a map is singular (or its output
differs in size) the Jordan program itself runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..channels import Channel
from ..jordan import GenJordanOperator, gen_jordan, inverse_pair, read_out_operator
from ..linalg import HermitianMatrix, TensorShape, ptranspose_array
from ..tolerances import DECISION_TOL, GEN_JORDAN_TOL
from ..witness import (JordanWitness, Witness, jordan_witness_from_dual, verify_jordan_witness,
                       verify_witness, witness_from_dual)
from . import solve
from .builders import build_compat, build_jordan_compat, two_marginal_problem
from .problem import SdpOutcome, SdpProblem, primal_check

# the CLI exit code of each verdict, and of the solver status it rests on
EXIT_CODES = {"Compatible": 0, "Feasible": 0, "Incompatible": 1, "Infeasible": 1, "Inconclusive": 2}


@dataclass
class Decision:
    verdict: str
    value: float
    compatibilizer: Optional[HermitianMatrix] = None
    gen_jordan_op: Optional[GenJordanOperator] = None
    witness: Optional[Union[Witness, JordanWitness]] = None
    witness_margin: float = 0.0
    outcome: Optional[SdpOutcome] = None
    note: str = ""

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.verdict]


def _compatible(out: SdpOutcome, f: Channel, g: Channel) -> Decision:
    """Compatible with a Feasible solve's point, checked in the solve."""
    return Decision("Compatible", out.value, outcome=out,
                    compatibilizer=HermitianMatrix(out.primal, TensorShape((f.d_in, f.d_out, g.d_out))))


def _refute(out: SdpOutcome, problem: SdpProblem, f: Channel, g: Channel, mode: str) -> Decision:
    """The decision on a solve that is not Feasible: Incompatible with the
    witness (of ``mode``) read out of the solver dual over ``problem`` and
    re-verified, or Inconclusive when the solve is or the witness fails it."""
    if out.status == "Inconclusive":
        return Decision("Inconclusive", out.value, outcome=out, note=out.note)
    if mode == "jordan":
        w = jordan_witness_from_dual(out.dual[0], problem)
        report = verify_jordan_witness(w, f, g)
    else:
        w = witness_from_dual(out.dual[0], problem, mode)
        report = verify_witness(w, f, g)
    if report.valid:
        return Decision("Incompatible", out.value, witness=w,
                        witness_margin=report.margin, outcome=out)
    return Decision("Inconclusive", out.value, outcome=out,
                    note="dual certificate failed verification")


def _decide_compat(f: Channel, g: Channel, optimum: bool) -> Decision:
    problem = build_compat(f, g)
    out = solve(problem, optimum=optimum)
    if out.status == "Feasible":
        return _compatible(out, f, g)
    return _refute(out, problem, f, g, "plain")


def _decide_jordan(f: Channel, g: Channel, optimum: bool) -> Decision:
    """Jordan compatibility, by the compat program when f and g are
    invertible and by the Jordan program otherwise (see the module
    docstring); A and the witness are read out over the Jordan program."""
    inverses = inverse_pair(f, g)
    jordan = build_jordan_compat(f, g)
    out = solve(jordan if inverses is None else build_compat(f, g), optimum=optimum)
    if out.status == "Feasible":
        a = read_out_operator(out.primal, jordan, inverses)
        report = primal_check(jordan, a.array, GEN_JORDAN_TOL, DECISION_TOL)
        if report.valid:
            op = GenJordanOperator(a)
            return Decision("Compatible", out.value, gen_jordan_op=op,
                            compatibilizer=gen_jordan(f.rep, g.rep, op).choi, outcome=out)
        note = (f"marginal constraints violated: deviation {report.constraint_residual:.3e}"
                if report.constraint_residual > GEN_JORDAN_TOL
                else f"product image not PSD at certificate tolerance ({report.min_eig:.2e})")
        return Decision("Inconclusive", out.value, outcome=out, note=note)
    return _refute(out, jordan, f, g, "jordan")


def _decide_ppt(f: Channel, g: Channel, optimum: bool) -> Decision:
    """Two stages: a transposed-marginal relaxation whose dual is the ppt
    witness, then (if that is feasible) the full program with both the
    variable and its partial transpose PSD.  A refutation of the full
    program has no ppt-format witness, so it stays Inconclusive."""
    dx, d1, d2 = f.d_in, f.d_out, g.d_out
    j1t = ptranspose_array(f.choi.array, (dx, d1), 0)
    j2t = ptranspose_array(g.choi.array, (dx, d2), 0)
    relax = two_marginal_problem(j1t, j2t, (dx, d1, d2), name="ppt_relaxation")
    out_a = solve(relax, optimum=optimum)
    if out_a.status != "Feasible":
        return _refute(out_a, relax, f, g, "ppt")

    out_b = solve(build_compat(f, g, ppt=True), optimum=optimum)
    if out_b.status == "Feasible":
        return _compatible(out_b, f, g)
    # a refutation's value: its checked pairing, or the optimum its dual meets
    note = out_b.note if out_b.status == "Inconclusive" else (
        "transposed-marginal relaxation is feasible but the full PPT program is refuted by a "
        f"checked Farkas certificate with pairing {out_b.value:.3e}, "
        "which has no witness in the ppt certificate format yet")
    return Decision("Inconclusive", out_b.value, outcome=out_b, note=note)


def decide(f: Channel, g: Channel, mode: str = "compat", optimum: bool = False) -> Decision:
    """Decide compatibility of a channel pair in the requested sense.

    Verdicts are Compatible, Incompatible or Inconclusive; the first two
    always carry a certificate that was checked after the solve.  Each
    solve stops at its first certificate, the product point (the pair's
    standard Jordan product) first where the one block is X, and ``value``
    is the bound it gives (see ``sdp.solve``); with ``optimum`` each
    converges, and ``value`` is the optimum.
    """
    if f.d_in != g.d_in:
        raise ValueError(f"input dimensions differ: {f.d_in} vs {g.d_in}")
    if mode == "compat":
        return _decide_compat(f, g, optimum)
    if mode == "jordan":
        return _decide_jordan(f, g, optimum)
    if mode == "ppt_compat":
        return _decide_ppt(f, g, optimum)
    raise ValueError(f"unknown decision mode {mode!r}")
