"""Three-valued compatibility decisions backed by verified certificates.

A Compatible verdict carries a primal certificate (a compatibilizer Choi
matrix, or the operator behind a generalized Jordan product) that passes
the channel validation checks; an Incompatible verdict carries a witness
that re-verifies in the witness module.  The two never coexist.  When
the solver cannot produce either at the required quality the verdict is
Inconclusive, with residual diagnostics attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from ..channels import Channel, apply_to_factor
from ..jordan import GenJordanOperator, gen_jordan
from ..linalg import HermitianMatrix, TensorShape, ptrace_array, ptranspose_array
from ..witness import (
    JordanWitness,
    Witness,
    adjoint_sum,
    verify_jordan_witness,
    verify_witness,
)
from . import DECISION_TOL, solve
from .builders import build_compat, build_jordan_compat, two_marginal_problem
from .problem import SdpOutcome

CERT_TOL = 1e-7

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
    """Compatible when the solver's X has the two Choi marginals and is PSD
    (and, with ``ppt``, PSD under the partial transpose on X)."""
    x = out.primal["X"]
    factors = (f.d_in, f.d_out, g.d_out)
    dev = max(np.abs(ptrace_array(x, factors, [2]) - f.choi.array).max(),
              np.abs(ptrace_array(x, factors, [1]) - g.choi.array).max())
    min_eig = np.linalg.eigvalsh(x).min()
    if ppt:
        min_eig = min(min_eig, np.linalg.eigvalsh(ptranspose_array(x, factors, 0)).min())
    if dev <= CERT_TOL and min_eig >= -CERT_TOL:
        cert = HermitianMatrix(x, TensorShape(factors))
        return Decision("Compatible", out.value, compatibilizer=cert, outcome=out,
                        diagnostics={"marginal_dev": dev, "min_eig": float(min_eig)})
    note = "primal certificate failed validation" + ("" if ppt else f" (dev {dev:.2e})")
    return Decision("Inconclusive", out.value, outcome=out, note=note)


def _refute(out: SdpOutcome, f: Channel, g: Channel, mode: str) -> Decision:
    """Incompatible with a (Z1, Z2) witness split from the solver dual and
    re-verified, or Inconclusive when the witness fails verification."""
    if out.dual:
        dx, d1, d2 = f.d_in, f.d_out, g.d_out
        z1, z2 = _split_adjoint_pair(out.dual[0], (dx, d1, d2))
        min_eig = np.linalg.eigvalsh(adjoint_sum(z1, z2, (dx, d1, d2))).min()
        if min_eig < 0:
            # shifting both parts by eps I moves the adjoint sum by 2 eps I and
            # costs only 2 eps d_x of margin
            eps = 0.75 * (-min_eig) + 1e-15
            z1 = z1 + eps * np.eye(dx * d1)
            z2 = z2 + eps * np.eye(dx * d2)
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


def _decide_compat(f: Channel, g: Channel, decision_tol: float) -> Decision:
    out = solve(build_compat(f, g), decision_tol=decision_tol)
    if out.status == "Feasible":
        return _certify_compatibilizer(out, f, g, ppt=False)
    if out.status == "Infeasible":
        return _refute(out, f, g, "plain")
    return Decision("Inconclusive", out.value, outcome=out, note=out.note)


def _decide_jordan(f: Channel, g: Channel, decision_tol: float) -> Decision:
    d = f.d_in
    out = solve(build_jordan_compat(f, g), decision_tol=decision_tol)
    if out.status == "Feasible":
        a = out.primal["A"]
        try:
            op = GenJordanOperator(HermitianMatrix(a, TensorShape((d, d, d))), tol=CERT_TOL)
        except ValueError as exc:
            return Decision("Inconclusive", out.value, outcome=out, note=str(exc))
        image = gen_jordan(f.rep, g.rep, op)
        min_eig = np.linalg.eigvalsh(image.choi.array).min()
        if min_eig >= -CERT_TOL:
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


def _decide_ppt(f: Channel, g: Channel, decision_tol: float) -> Decision:
    """Two stages: a transposed-marginal relaxation whose dual is the ppt
    witness, then (if that is feasible) the full program with both the
    variable and its partial transpose PSD."""
    dx, d1, d2 = f.d_in, f.d_out, g.d_out
    j1t = ptranspose_array(f.choi.array, (dx, d1), 0)
    j2t = ptranspose_array(g.choi.array, (dx, d2), 0)
    relax = two_marginal_problem(j1t, j2t, (dx, d1, d2), name="ppt_relaxation")
    out_a = solve(relax, decision_tol=decision_tol)
    if out_a.status == "Infeasible":
        return _refute(out_a, f, g, "ppt")
    if out_a.status != "Feasible":
        return Decision("Inconclusive", out_a.value, outcome=out_a, note=out_a.note)

    out_b = solve(build_compat(f, g, ppt=True), decision_tol=decision_tol)
    if out_b.status == "Feasible":
        return _certify_compatibilizer(out_b, f, g, ppt=True)
    return Decision(
        "Inconclusive", out_b.value, outcome=out_b,
        note="transposed-marginal relaxation is feasible but no PPT compatibilizer "
        "was certified; no witness exists in the ppt certificate format",
    )


def decide(f: Channel, g: Channel, mode: str = "compat",
           decision_tol: float = DECISION_TOL) -> Decision:
    """Decide compatibility of a channel pair in the requested sense.

    Verdicts are Compatible, Incompatible or Inconclusive; the first two
    always carry a certificate that was re-verified after the solve.
    """
    if f.d_in != g.d_in:
        raise ValueError(f"input dimensions differ: {f.d_in} vs {g.d_in}")
    if mode == "compat":
        return _decide_compat(f, g, decision_tol)
    if mode == "jordan":
        return _decide_jordan(f, g, decision_tol)
    if mode == "ppt_compat":
        return _decide_ppt(f, g, decision_tol)
    raise ValueError(f"unknown decision mode {mode!r}")
