"""Problem builders for every compatibility question the package decides."""

from __future__ import annotations

import numpy as np

from ..channels import Channel, Povm, _choi_identity
from ..linalg import HermitianMatrix
from .problem import Block, Constraint, ConstraintTerm, SdpProblem, VariableSpec


def two_marginal_problem(rhs1: np.ndarray, rhs2: np.ndarray, factors: tuple[int, int, int],
                         ppt: bool = False, name: str = "two_marginal") -> SdpProblem:
    """Find X >= t I on X (x) Y1 (x) Y2 with both partial-trace marginals fixed.

    With ``ppt`` the partial transpose on the first factor is constrained
    PSD as well (shifted by the same t, so the program stays strictly
    feasible and the optimum's sign decides the hard problem).
    """
    dx, d1, d2 = factors
    if rhs1.shape[0] != dx * d1 or rhs2.shape[0] != dx * d2:
        raise ValueError("marginal right-hand sides do not match the factor dimensions")
    var = VariableSpec("X", (dx, d1, d2))
    cons = (
        Constraint((ConstraintTerm("X", (2,)),), np.asarray(rhs1, dtype=np.complex128)),
        Constraint((ConstraintTerm("X", (1,)),), np.asarray(rhs2, dtype=np.complex128)),
    )
    blocks = [Block("X", "identity")]
    if ppt:
        blocks.append(Block("X", "ptranspose", factor=0))
    return SdpProblem((var,), cons, tuple(blocks), name=name)


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


def build_jordan_compat(f: Channel, g: Channel) -> SdpProblem:
    """Jordan-compatibility program over operators with identity-Choi marginals."""
    if f.d_in != g.d_in:
        raise ValueError(f"input dimensions differ: {f.d_in} vs {g.d_in}")
    d = f.d_in
    var = VariableSpec("A", (d, d, d))
    jid = _choi_identity(d)
    cons = (
        Constraint((ConstraintTerm("A", (1,)),), jid),
        Constraint((ConstraintTerm("A", (2,)),), jid),
    )
    blocks = (Block("A", "map_image", maps=(None, f.rep, g.rep)),)
    return SdpProblem((var,), cons, blocks, name="jordan_compat")


def build_k_extension(f: Channel, k: int) -> SdpProblem:
    """k-fold self-compatibility: k marginals of one variable all equal J(f)."""
    if k < 2:
        raise ValueError("k must be at least 2")
    dx, dy = f.d_in, f.d_out
    factors = (dx,) + (dy,) * k
    var = VariableSpec("X", factors)
    cons = []
    for a in range(1, k + 1):
        traced = tuple(i for i in range(1, k + 1) if i != a)
        cons.append(Constraint((ConstraintTerm("X", traced),), f.choi.array))
    blocks = (Block("X", "identity"),)
    return SdpProblem((var,), tuple(cons), blocks, name="k_extension")


def build_povm_compat(m_povm: Povm, n_povm: Povm) -> SdpProblem:
    """Joint measurement existence: PSD parts with the two POVMs as margins."""
    if m_povm.dim != n_povm.dim:
        raise ValueError("POVMs must act on the same space")
    d = m_povm.dim
    nm, nn = len(m_povm), len(n_povm)
    variables = tuple(
        VariableSpec(f"P_{i}_{j}", (d,)) for i in range(nm) for j in range(nn)
    )
    cons = []
    for i in range(nm):
        terms = tuple(ConstraintTerm(f"P_{i}_{j}") for j in range(nn))
        cons.append(Constraint(terms, np.asarray(m_povm.effects[i], dtype=np.complex128)))
    for j in range(nn):
        terms = tuple(ConstraintTerm(f"P_{i}_{j}") for i in range(nm))
        cons.append(Constraint(terms, np.asarray(n_povm.effects[j], dtype=np.complex128)))
    blocks = tuple(Block(f"P_{i}_{j}", "identity") for i in range(nm) for j in range(nn))
    return SdpProblem(variables, tuple(cons), blocks, name="povm_compat")
