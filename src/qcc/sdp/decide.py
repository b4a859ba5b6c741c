"""Three-valued compatibility decisions backed by verified certificates.

A Compatible verdict carries a primal certificate (a compatibilizer Choi
matrix, or the operator behind a generalized Jordan product) that passes
the channel validation checks; an Incompatible verdict carries a witness
that re-verifies in the witness module.  The two never coexist.  When
the solver cannot produce either at the required quality the verdict is
Inconclusive, with residual diagnostics attached.  Certificates are
checked at ``DECISION_TOL``.

Jordan mode solves the compat program when both channels are invertible
as linear maps.  The substitution X = (id (x) f (x) g)(A) maps the Jordan
program onto the compat program with the same t: the maps are trace
preserving, so they carry the identity-Choi marginals of A onto J(f) and
J(g), and their inverses carry them back.  The operator A is then read
out of the compatibilizer through the inverse maps, and the compat
certificate is the dual the Jordan witness is built from.  When a map is
singular (or its output differs in size) the Jordan program itself runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from ..channels import Channel, SingularMapError, apply_to_factor, invert_map
from ..jordan import GenJordanOperator, a_jp, gen_jordan
from ..linalg import HermitianMatrix, TensorShape, ptrace_array, ptranspose_array
from ..witness import (
    JordanWitness,
    Witness,
    adjoint_sum,
    verify_compatibilizer,
    verify_jordan_witness,
    verify_witness,
)
from . import DECISION_TOL, solve
from .builders import build_compat, build_jordan_compat, two_marginal_problem
from .problem import SdpOutcome

EXIT_CODES = {"Compatible": 0, "Incompatible": 1, "Inconclusive": 2}


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
    diagnostics: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.verdict]


def _split_adjoint_pair(z: np.ndarray, factors: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Split Z on X (x) Y1 (x) Y2 into (Z1, Z2) whose adjoint sum
    Tr*_{Y2}(Z1) + Tr*_{Y1}(Z2) is the orthogonal projection of Z onto the
    range of the two embeddings.

    The projectors onto the two ranges commute, so the projection onto
    their sum is P1 + P2 - P1 P2; the shared X part goes to Z1.  Any other
    split differs by (C (x) I, -C (x) I), which leaves the pairing with
    trace-preserving Choi matrices unchanged.
    """
    dx, d1, d2 = factors
    z1 = ptrace_array(z, factors, [2]) / d2
    shared = ptrace_array(z, factors, [1, 2]) / (d1 * d2)
    z2 = ptrace_array(z, factors, [1]) / d1 - np.kron(shared, np.eye(d2))
    return z1, z2


def _certify_compatibilizer(out: SdpOutcome, f: Channel, g: Channel, ppt: bool) -> Decision:
    """Compatible when the solver's X passes ``verify_compatibilizer``."""
    x = out.primal["X"]
    report = verify_compatibilizer(x, f, g, ppt)
    dev = report.constraint_residual
    if report.valid:
        return Decision("Compatible", out.value, outcome=out,
                        compatibilizer=HermitianMatrix(x, TensorShape((f.d_in, f.d_out, g.d_out))),
                        diagnostics={"marginal_dev": dev, "min_eig": report.min_eig})
    note = "primal certificate failed validation" + ("" if ppt else f" (dev {dev:.2e})")
    return Decision("Inconclusive", out.value, outcome=out, note=note)


def _refute(out: SdpOutcome, f: Channel, g: Channel, mode: str) -> Decision:
    """Incompatible with a (Z1, Z2) witness split from the solver dual and
    re-verified, or Inconclusive when the witness fails verification."""
    if out.dual:
        dx, d1, d2 = f.d_in, f.d_out, g.d_out
        # S is the solver's interior slack, so the adjoint sum of its split
        # is PSD up to roundoff, which verify_witness accepts
        z1, z2 = _split_adjoint_pair(out.dual[0], (dx, d1, d2))
        w = Witness(
            HermitianMatrix(z1, TensorShape((dx, d1))),
            HermitianMatrix(z2, TensorShape((dx, d2))),
            mode=mode,
        )
        report = verify_witness(w, f, g)
        if report.valid:
            return Decision("Incompatible", out.value, witness=w,
                            witness_margin=report.margin, outcome=out)
    return Decision("Inconclusive", out.value, outcome=out,
                    note="dual certificate failed verification")


def _decide_compat(f: Channel, g: Channel) -> Decision:
    out = solve(build_compat(f, g))
    if out.status == "Feasible":
        return _certify_compatibilizer(out, f, g, ppt=False)
    if out.status == "Infeasible":
        return _refute(out, f, g, "plain")
    return Decision("Inconclusive", out.value, outcome=out, note=out.note)


def _project_identity_marginals(a: np.ndarray, d: int) -> np.ndarray:
    """Orthogonal projection of A onto the operators whose two middle
    marginals are the identity map's Choi matrix."""
    factors = (d, d, d)
    excess = a - a_jp(d).matrix.array
    return a - adjoint_sum(*_split_adjoint_pair(excess, factors), factors)


def _decide_jordan(f: Channel, g: Channel) -> Decision:
    """Jordan compatibility, by the compat program when f and g are
    invertible and by the Jordan program otherwise.

    For invertible maps the two programs have the same optimum t (see the
    module docstring), and A = (id (x) f^-1 (x) g^-1)(X).  The inverses
    multiply the solver's residual by their condition number, so the
    read-out A is projected back onto the identity-marginal set before
    it is certified.
    """
    d = f.d_in
    try:
        inverses = (invert_map(f.rep), invert_map(g.rep))
    except SingularMapError:
        inverses = None
    build = build_jordan_compat if inverses is None else build_compat
    out = solve(build(f, g))
    if out.status == "Feasible":
        if inverses is None:
            a = out.primal["A"]
        else:
            a, dims = apply_to_factor(out.primal["X"], (d, d, d), 1, inverses[0])
            a, _ = apply_to_factor(a, dims, 2, inverses[1])
        a = _project_identity_marginals(a, d)
        try:
            op = GenJordanOperator(HermitianMatrix(a, TensorShape((d, d, d))), tol=DECISION_TOL)
        except ValueError as exc:
            return Decision("Inconclusive", out.value, outcome=out, note=str(exc))
        image = gen_jordan(f.rep, g.rep, op)
        min_eig = np.linalg.eigvalsh(image.choi.array).min()
        if min_eig >= -DECISION_TOL:
            return Decision("Compatible", out.value, gen_jordan_op=op,
                            compatibilizer=image.choi, outcome=out,
                            diagnostics={"min_eig": float(min_eig)})
        return Decision("Inconclusive", out.value, outcome=out,
                        note=f"product image not PSD at certificate tolerance ({min_eig:.2e})")
    if out.status == "Infeasible" and out.dual:
        rho = out.dual[0]
        w_rho, v_rho = np.linalg.eigh(rho)
        rho_clean = (v_rho * np.maximum(w_rho, 0.0)) @ v_rho.conj().T
        dims = (d, f.d_out, g.d_out)
        lhs, cur = apply_to_factor(rho_clean, dims, 1, f.rep, adjoint=True)
        lhs, _ = apply_to_factor(lhs, cur, 2, g.rep, adjoint=True)
        w1, w2 = _split_adjoint_pair(lhs, (d, d, d))
        witness = JordanWitness(
            HermitianMatrix(w1, TensorShape((d, d))),
            HermitianMatrix(w2, TensorShape((d, d))),
            HermitianMatrix(rho_clean, TensorShape(dims)),
        )
        report = verify_jordan_witness(witness, f, g)
        if report.valid:
            return Decision("Incompatible", out.value, witness=witness,
                            witness_margin=report.margin, outcome=out)
        return Decision("Inconclusive", out.value, outcome=out,
                        note="dual certificate failed verification")
    return Decision("Inconclusive", out.value, outcome=out, note=out.note)


def _decide_ppt(f: Channel, g: Channel) -> Decision:
    """Two stages: a transposed-marginal relaxation whose dual is the ppt
    witness, then (if that is feasible) the full program with both the
    variable and its partial transpose PSD."""
    dx, d1, d2 = f.d_in, f.d_out, g.d_out
    j1t = ptranspose_array(f.choi.array, (dx, d1), 0)
    j2t = ptranspose_array(g.choi.array, (dx, d2), 0)
    relax = two_marginal_problem(j1t, j2t, (dx, d1, d2), name="ppt_relaxation")
    out_a = solve(relax)
    if out_a.status == "Infeasible":
        return _refute(out_a, f, g, "ppt")
    if out_a.status != "Feasible":
        return Decision("Inconclusive", out_a.value, outcome=out_a, note=out_a.note)

    out_b = solve(build_compat(f, g, ppt=True))
    if out_b.status == "Feasible":
        return _certify_compatibilizer(out_b, f, g, ppt=True)
    return Decision(
        "Inconclusive", out_b.value, outcome=out_b,
        note="transposed-marginal relaxation is feasible but no PPT compatibilizer "
        "was certified; no witness exists in the ppt certificate format",
    )


def decide(f: Channel, g: Channel, mode: str = "compat") -> Decision:
    """Decide compatibility of a channel pair in the requested sense.

    Verdicts are Compatible, Incompatible or Inconclusive; the first two
    always carry a certificate that was re-verified after the solve.
    """
    if f.d_in != g.d_in:
        raise ValueError(f"input dimensions differ: {f.d_in} vs {g.d_in}")
    if mode == "compat":
        return _decide_compat(f, g)
    if mode == "jordan":
        return _decide_jordan(f, g)
    if mode == "ppt_compat":
        return _decide_ppt(f, g)
    raise ValueError(f"unknown decision mode {mode!r}")
