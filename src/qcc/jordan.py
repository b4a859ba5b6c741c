"""Jordan products of matrices and of channels, and their generalization.

The Jordan product of two maps into Y1 and Y2 is the map into Y1 (x) Y2
obtained by pushing a canonical operator A through (id (x) Phi1 (x) Phi2);
the canonical choice recovers (AB + BA)/2 at the matrix level.  Replacing
the canonical operator by any Hermitian A with the same two middle
marginals gives the generalized product, and the existence of such an A
making the product completely positive is a compatibility criterion;
such an A is the certificate of a Jordan-compatible verdict, read out
of a solve by ``sdp.problem.project_point`` and checked as a point of the
program it certifies (``sdp.build_jordan_compat``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channels import Channel, LinearMapRep, SingularMapError, apply_to_factors, invert_map
from .linalg import HermitianMatrix, TensorShape
from .tolerances import DECISION_TOL, GEN_JORDAN_TOL, OPERATOR_TOL
from .sdp.builders import build_jordan_compat, jordan_constraints
from .sdp.problem import SdpProblem, WitnessReport, constraint_deviations, primal_check, project_point
from .witness import verify_compatibilizer


@dataclass(frozen=True)
class GenJordanOperator:
    """Hermitian operator on X (x) X1 (x) X2 with both middle marginals equal
    to the Choi matrix of the identity map."""

    matrix: HermitianMatrix

    def __post_init__(self):
        factors = self.matrix.shape.factors
        if len(factors) != 3 or len(set(factors)) != 1:
            raise ValueError(f"expected shape [d, d, d], got {factors}")
        dev = max(constraint_deviations(factors, jordan_constraints(factors[0]), self.matrix.array))
        if dev > GEN_JORDAN_TOL:
            raise ValueError(f"marginal constraints violated: deviation {dev:.3e}")

    @property
    def d(self) -> int:
        return self.matrix.shape.factors[0]


def inverse_pair(f: Channel, g: Channel) -> Optional[tuple[LinearMapRep, LinearMapRep]]:
    """(f^-1, g^-1), or None when either map is singular."""
    try:
        return invert_map(f.rep), invert_map(g.rep)
    except SingularMapError:
        return None


def read_out_operator(arr: np.ndarray, jordan: SdpProblem,
                      inverses: Optional[tuple[LinearMapRep, LinearMapRep]]) -> HermitianMatrix:
    """A at the Jordan program's point ``arr`` (with ``inverses``, of the compat
    program's X, through (id (x) f^-1 (x) g^-1)), projected onto the program's
    constraints: the inverses multiply X's residual by their condition."""
    if inverses is not None:
        arr = apply_to_factors(arr, jordan.factors, (None, *inverses))
    return HermitianMatrix(project_point(jordan, arr), TensorShape(jordan.factors))


def verify_gen_jordan_operator(a: HermitianMatrix, f: Channel, g: Channel) -> WitnessReport:
    """Check A as a point of the Jordan program: its two middle marginals
    are J(id) within ``GEN_JORDAN_TOL`` (``constraint_residual``) and
    (id (x) f (x) g)(A) is PSD within ``DECISION_TOL`` (``min_eig``)."""
    d = f.d_in
    if g.d_in != d or a.shape.factors != (d, d, d):
        raise ValueError(f"operator shape {a.shape.factors} does not match inputs ({d}, {g.d_in})")
    return primal_check(build_jordan_compat(f, g), a.array, GEN_JORDAN_TOL, DECISION_TOL)


def jordan_matrix(a, b, anchor: Optional[np.ndarray] = None) -> HermitianMatrix:
    """(AB + BA)/2, optionally shifted by the anchor correction.

    With a traceless Hermitian anchor X the product becomes
    A . B + Tr(XA) Tr(XB) I, the operator form of the generalized
    Jordan product for operators.
    """
    a_arr = a.array if isinstance(a, HermitianMatrix) else np.asarray(a, dtype=np.complex128)
    b_arr = b.array if isinstance(b, HermitianMatrix) else np.asarray(b, dtype=np.complex128)
    if a_arr.shape != b_arr.shape:
        raise ValueError("operands must have the same side")
    out = (a_arr @ b_arr + b_arr @ a_arr) / 2
    if anchor is not None:
        x = np.asarray(anchor, dtype=np.complex128)
        if abs(np.trace(x)) > OPERATOR_TOL:
            raise ValueError("anchor must be traceless")
        coeff = np.trace(x @ a_arr) * np.trace(x @ b_arr)
        out = out + coeff * np.eye(a_arr.shape[0])
    return HermitianMatrix(out)


def a_jp(d: int) -> GenJordanOperator:
    """Canonical operator whose generalized product is the standard one.

    A = (1/2) sum_ij E_ij (x) ( sum_k E_ik (x) E_kj + E_kj (x) E_ik ).
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    arr = np.zeros((d ** 3, d ** 3), dtype=np.complex128)
    i, j, k = (ax.ravel() for ax in np.indices((d, d, d)))
    # E_ij (x) E_ik (x) E_kj and E_ij (x) E_kj (x) E_ik, which meet at i = j = k
    np.add.at(arr, ((i * d + i) * d + k, (j * d + k) * d + j), 0.5)
    np.add.at(arr, ((i * d + k) * d + i, (j * d + j) * d + k), 0.5)
    return GenJordanOperator(HermitianMatrix(arr, TensorShape((d, d, d))))


def gen_jordan(f: LinearMapRep, g: LinearMapRep, a: GenJordanOperator) -> LinearMapRep:
    """Generalized Jordan product: push A through (id (x) f (x) g).

    The maps act factor-wise on A's middle and last factor, so the
    d^6 x d^6 super-map is never formed.
    """
    d = a.d
    if f.d_in != d or g.d_in != d:
        raise ValueError("map input dimensions must match the operator")
    product = apply_to_factors(a.matrix.array, (d, d, d), (None, f, g))
    return LinearMapRep.from_choi(product, d, (f.d_out, g.d_out))


def jordan_channel(f: LinearMapRep, g: LinearMapRep) -> LinearMapRep:
    """Standard Jordan product of two maps with a common input space."""
    if f.d_in != g.d_in:
        raise ValueError("maps must share the input space")
    return gen_jordan(f, g, a_jp(f.d_in))


def gen_jordan_from_compatibilizer(f: Channel, g: Channel, comp: Channel) -> GenJordanOperator:
    """Operator A with J(f .A g) = J(comp), read out through the inverse maps.

    Requires f and g to be invertible as linear maps and ``comp`` to pass
    ``witness.verify_compatibilizer``; this is the constructive direction
    of the compatible-iff-Jordan-compatible equivalence.
    """
    if comp.rep.output_factors != (f.d_out, g.d_out) or comp.d_in != f.d_in or f.d_in != g.d_in:
        raise ValueError("dimension mismatch between channels and compatibilizer")
    report = verify_compatibilizer(comp.choi.array, f, g)
    if not report.valid:
        raise ValueError("channel is not a compatibilizer of the pair "
                         f"(deviation {report.constraint_residual:.3e})")
    inverses = (invert_map(f.rep), invert_map(g.rep))
    return GenJordanOperator(read_out_operator(comp.choi.array, build_jordan_compat(f, g), inverses))
