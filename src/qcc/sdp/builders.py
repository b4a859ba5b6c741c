"""Problem builders for every compatibility question the package decides."""

from __future__ import annotations

import numpy as np

from ..channels import Channel, Povm, _choi_identity, measurement_channel, transpose_map
from ..linalg import HermitianMatrix
from .problem import IPM_SIDE_CAP, Block, Constraint, SdpProblem, SizeCapError, side_text


def two_marginal_problem(rhs1: np.ndarray, rhs2: np.ndarray, factors: tuple[int, int, int],
                         ppt: bool = False, name: str = "two_marginal") -> SdpProblem:
    """Find X >= t I on X (x) Y1 (x) Y2 with both partial-trace marginals fixed.

    With ``ppt`` the partial transpose on the first factor is constrained
    PSD as well (shifted by the same t, so the program stays strictly
    feasible and the optimum's sign decides the hard problem).
    """
    cons = (
        Constraint((2,), np.asarray(rhs1, dtype=np.complex128)),
        Constraint((1,), np.asarray(rhs2, dtype=np.complex128)),
    )
    blocks = (Block(), Block((transpose_map(factors[0]), None, None))) if ppt else (Block(),)
    return SdpProblem(factors, cons, blocks, name=name)


def build_compat(f: Channel, g: Channel, ppt: bool = False) -> SdpProblem:
    """Channel-compatibility program: a compatibilizer exists iff the optimum is >= 0."""
    if f.d_in != g.d_in:
        raise ValueError(f"input dimensions differ: {f.d_in} vs {g.d_in}")
    factors = (f.d_in, f.d_out, g.d_out)
    return two_marginal_problem(f.choi.array, g.choi.array, factors, ppt=ppt,
                                name="ppt_compat" if ppt else "compat")


def build_state_compat(rho1: HermitianMatrix, rho2: HermitianMatrix) -> SdpProblem:
    """Joint-state existence program for two overlapping density matrices."""
    f1, f2 = rho1.shape.factors, rho2.shape.factors
    if len(f1) != 2 or len(f2) != 2 or f1[0] != f2[0]:
        raise ValueError("states must live on X (x) Y1 and X (x) Y2")
    factors = (f1[0], f1[1], f2[1])
    return two_marginal_problem(rho1.array, rho2.array, factors, name="state_compat")


def jordan_constraints(d: int) -> tuple[Constraint, Constraint]:
    """Both middle marginals of an operator on X (x) X1 (x) X2 equal J(id),
    in the compat program's order, so the two programs of an invertible pair
    share one structure (``problem._plan_key``)."""
    jid = _choi_identity(d)
    return Constraint((2,), jid), Constraint((1,), jid)


def build_jordan_compat(f: Channel, g: Channel) -> SdpProblem:
    """Jordan-compatibility program over operators with identity-Choi marginals."""
    if f.d_in != g.d_in:
        raise ValueError(f"input dimensions differ: {f.d_in} vs {g.d_in}")
    d = f.d_in
    blocks = (Block((None, f.rep, g.rep)),)
    return SdpProblem((d, d, d), jordan_constraints(d), blocks, name="jordan_compat")


def build_k_extension(f: Channel, k: int) -> SdpProblem:
    """k-fold self-compatibility: k marginals of one variable all equal J(f).
    A side above ``IPM_SIDE_CAP`` raises ``SizeCapError`` before the
    k constraints, O(k^2) memory and O(k^3) checks, are built."""
    if k < 2:
        raise ValueError("k must be at least 2")
    dx, dy = f.d_in, f.d_out
    side = dx * dy ** k
    if side > IPM_SIDE_CAP:
        raise SizeCapError(f"a k = {k} extension has variable side {dx} * {dy}^{k} = "
                           f"{side_text(side)}, above the size cap (a side of {IPM_SIDE_CAP})")
    factors = (dx,) + (dy,) * k
    cons = tuple(Constraint(tuple(i for i in range(1, k + 1) if i != a), f.choi.array)
                 for a in range(1, k + 1))
    return SdpProblem(factors, cons, (Block(),), name="k_extension")


def build_povm_compat(m_povm: Povm, n_povm: Povm) -> SdpProblem:
    """Joint measurability of two POVMs, as compatibility of their
    measurement channels.

    Dephasing both outcome registers is unital and keeps both marginals,
    so the optimum t is that of a joint POVM's program, and the diagonal
    register blocks X[(x, i, j), (x', i, j)] of a feasible X are the
    transposed joint effects P_ij^T, with sum_j P_ij = M_i and
    sum_i P_ij = N_j.
    """
    if m_povm.dim != n_povm.dim:
        raise ValueError("POVMs must act on the same space")
    return build_compat(measurement_channel(m_povm), measurement_channel(n_povm))
