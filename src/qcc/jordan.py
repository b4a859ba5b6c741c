"""Jordan products of matrices and of channels, and their generalization.

The Jordan product of two maps into Y1 and Y2 is the map into Y1 (x) Y2
obtained by pushing a canonical operator A through (id (x) Phi1 (x) Phi2);
the canonical choice recovers (AB + BA)/2 at the matrix level.  Replacing
the canonical operator by any Hermitian A with the same two middle
marginals gives the generalized product, and the existence of such an A
making the product completely positive is a compatibility criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channels import Channel, LinearMapRep, _choi_identity, apply_to_factor, invert_map
from .linalg import HermitianMatrix, TensorShape, ptrace_array
from .sdp import DECISION_TOL
from .witness import verify_compatibilizer

GEN_JORDAN_TOL = 1e-8


@dataclass(frozen=True)
class GenJordanOperator:
    """Hermitian operator on X (x) X1 (x) X2 with both middle marginals equal
    to the Choi matrix of the identity map."""

    matrix: HermitianMatrix
    tol: float = GEN_JORDAN_TOL

    def __post_init__(self):
        factors = self.matrix.shape.factors
        if len(factors) != 3 or len(set(factors)) != 1:
            raise ValueError(f"expected shape [d, d, d], got {factors}")
        d = factors[0]
        jid = _choi_identity(d)
        arr = self.matrix.array
        dev1 = np.abs(ptrace_array(arr, factors, [1]) - jid).max()
        dev2 = np.abs(ptrace_array(arr, factors, [2]) - jid).max()
        if max(dev1, dev2) > self.tol:
            raise ValueError(
                f"marginal constraints violated: deviations {dev1:.3e}, {dev2:.3e}"
            )

    @property
    def d(self) -> int:
        return self.matrix.shape.factors[0]


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
        if abs(np.trace(x)) > 1e-10:
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
    n = d ** 3
    arr = np.zeros((n, n), dtype=np.complex128)

    def idx(a, b, c):
        return (a * d + b) * d + c

    for i in range(d):
        for j in range(d):
            for k in range(d):
                arr[idx(i, i, k), idx(j, k, j)] += 0.5
                arr[idx(i, k, i), idx(j, j, k)] += 0.5
    mat = HermitianMatrix(arr, TensorShape((d, d, d)))
    return GenJordanOperator(mat)


def gen_jordan(f: LinearMapRep, g: LinearMapRep, a: GenJordanOperator) -> LinearMapRep:
    """Generalized Jordan product: push A through (id (x) f (x) g).

    The maps act factor-wise on A's middle and last factor, so the
    d^6 x d^6 super-map is never formed.
    """
    d = a.d
    if f.d_in != d or g.d_in != d:
        raise ValueError("map input dimensions must match the operator")
    arr, dims = apply_to_factor(a.matrix.array, (d, d, d), 1, f)
    arr, dims = apply_to_factor(arr, dims, 2, g)
    return LinearMapRep.from_choi(arr, d, (f.d_out, g.d_out))


def jordan_channel(f: LinearMapRep, g: LinearMapRep) -> LinearMapRep:
    """Standard Jordan product of two maps with a common input space."""
    if f.d_in != g.d_in:
        raise ValueError("maps must share the input space")
    return gen_jordan(f, g, a_jp(f.d_in))


def gen_jordan_from_compatibilizer(f: Channel, g: Channel, comp: Channel) -> GenJordanOperator:
    """Operator A with J(f .A g) = J(comp), built from the inverse maps.

    Requires f and g to be invertible as linear maps and ``comp`` to pass
    ``witness.verify_compatibilizer``; this is the constructive direction
    of the compatible-iff-Jordan-compatible equivalence.
    """
    if len(comp.rep.output_factors) != 2:
        raise ValueError("compatibilizer must declare a two-factor output")
    d1, d2 = comp.rep.output_factors
    if (d1, d2) != (f.d_out, g.d_out) or comp.d_in != f.d_in or f.d_in != g.d_in:
        raise ValueError("dimension mismatch between channels and compatibilizer")
    jc = comp.choi.array
    dims = comp.rep.dims
    report = verify_compatibilizer(jc, f, g)
    if not report.valid:
        raise ValueError("channel is not a compatibilizer of the pair "
                         f"(deviation {report.constraint_residual:.3e})")
    f_inv = invert_map(f.rep)
    g_inv = invert_map(g.rep)
    arr, dims = apply_to_factor(jc, dims, 1, f_inv)
    arr, dims = apply_to_factor(arr, dims, 2, g_inv)
    d = f.d_in
    mat = HermitianMatrix(arr, TensorShape((d, d, d)))
    return GenJordanOperator(mat, tol=DECISION_TOL)
