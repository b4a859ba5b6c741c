"""Problem container and compilation for the SDP engine.

A problem has one or more complex Hermitian variables, affine equality
constraints built from partial traces (with Hermitian right-hand sides),
and PSD blocks that are structured linear images of the variables.  The
objective is always "maximize t" with t subtracted from every block, so
the underlying hard feasibility question reads off the sign of the
optimum.

The vectorized constraint matrix is built from the adjoints: the rows
of a partial-trace term are the identity embeddings of the constraint
space's Hermitian basis, so no variable basis is ever traced.  One SVD
of it (``_eliminate``) yields a particular solution and an orthonormal
basis of the constraint rows (which the projection solver uses), and
on request one of the free directions.

Compilation for the interior-point solver takes one of two forms,
chosen from the block kinds:

- standard form, when the PSD blocks are exactly the variables
  (compat, the PPT relaxation, state compat, the k-extension and POVM
  compat).  The solver's Z is W = X - tI, t is eliminated along the
  identity direction, and the Schur system has one row per constraint
  dimension less one, rank(K) - 1: 152 for qutrit compat.  The thin
  SVD suffices.
- null-space form, when a block is a partial transpose or a map image:
  the full PPT program (stage B of a PPT decision), and the Jordan
  program, which ``decide`` runs only when a channel map is singular
  (for an invertible pair it solves the compat program instead).
  Standard form would need a W per block, linked to the variable by n^2
  more rows each (881 for qutrit PPT) or by inverses of the channel
  maps.  The PSD blocks are affine in the free coordinates,
  reparametrized so that their block images are orthonormal, and the
  Schur system has one row per free direction plus t: 577 for the
  qutrit Jordan program.

Either way the blocks stay complex Hermitian and the Schur system real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..channels import LinearMapRep, apply_to_factor
from ..linalg import (
    embed_identity_array,
    herm_to_vec,
    hermitian_basis,
    ptranspose_array,
    vec_to_herm,
)

CONSTRAINT_RANK_TOL = 1e-10


@dataclass(frozen=True)
class VariableSpec:
    name: str
    factors: tuple[int, ...]

    @property
    def side(self) -> int:
        return int(np.prod(self.factors))

    @property
    def nparams(self) -> int:
        return self.side ** 2


@dataclass(frozen=True)
class ConstraintTerm:
    """One summand of a constraint: a variable with factors traced out (or kept whole)."""

    var: str
    traced: tuple[int, ...] = ()


@dataclass(frozen=True)
class Constraint:
    terms: tuple[ConstraintTerm, ...]
    rhs: np.ndarray


@dataclass(frozen=True)
class Block:
    """A PSD block: a structured linear image of one variable.

    kind "identity": the variable itself.
    kind "ptranspose": partial transpose on one factor.
    kind "map_image": maps applied factor-wise (None leaves a factor alone).
    """

    var: str
    kind: str = "identity"
    factor: Optional[int] = None
    maps: Optional[tuple[Optional[LinearMapRep], ...]] = None


@dataclass
class SdpProblem:
    variables: tuple[VariableSpec, ...]
    constraints: tuple[Constraint, ...]
    blocks: tuple[Block, ...]
    name: str = ""
    meta: dict = field(default_factory=dict)

    def variable(self, name: str) -> VariableSpec:
        for v in self.variables:
            if v.name == name:
                return v
        raise KeyError(name)

    @property
    def total_params(self) -> int:
        return sum(v.nparams for v in self.variables)


@dataclass
class SdpOutcome:
    """Result of a solve: three-valued status plus certificates and residuals.

    The decision band is a floating-point artifact: optima within
    ``decision_tol`` of zero are not trustworthy sign decisions, which is
    flagged in ``note`` by the callers that decide.
    """

    status: str
    value: float
    primal: Optional[dict] = None
    dual: Optional[list] = None
    residuals: dict = field(default_factory=dict)
    iterations: int = 0
    decision_tol: float = 1e-7
    note: str = ""


# ---------------------------------------------------------------------------
# structured operator application (batched over a stack of matrices)
# ---------------------------------------------------------------------------


def block_image_many(block: Block, var: VariableSpec, arrs: np.ndarray) -> np.ndarray:
    """Apply a block's structured operator to a stack of variable matrices."""
    if block.kind == "identity":
        return arrs
    if block.kind == "ptranspose":
        return ptranspose_array(arrs, var.factors, block.factor)
    if block.kind == "map_image":
        dims = list(var.factors)
        out = arrs
        for pos, rep in enumerate(block.maps):
            if rep is not None:
                out, dims = apply_to_factor(out, dims, pos, rep)
        return out
    raise ValueError(f"unknown block kind {block.kind!r}")


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------


@dataclass
class CompiledSdp:
    """The interior-point data of a problem and the read-out of a solve.

    ``solve_ipm`` works on the pair of its module docstring: y and
    S = C - A(y) on one side, Z with A^*(Z) = b on the other.  Which side
    holds the compatibilizer depends on the form:

    - null-space form (``nullbasis`` set): y = (free coordinates, t),
      S = X - tI, and Z is the certificate;
    - standard form (``nullbasis`` None): Z = W = X - tI with
      t = t0 - <C, W>, and S is the certificate.

    Either way the certificate has trace 1 and lies in the range of the
    constraint adjoints, and ``Z0`` is where the solver starts Z.
    """

    problem: SdpProblem
    x0: np.ndarray
    b: np.ndarray
    C_blocks: list
    A_blocks: list  # per block: (m, n, n) complex Hermitian
    Z0: list
    removed_redundant: int
    dropped_directions: int
    nullbasis: Optional[np.ndarray] = None  # (P, m - 1) free directions, null-space form
    t0: float = 0.0  # t at W = 0, standard form

    @property
    def m(self) -> int:
        return self.b.shape[0]

    def value(self, res) -> float:
        """The optimal t."""
        return res.pobj if self.nullbasis is not None else self.t0 - res.dobj

    def dual_objective(self, res) -> float:
        """The objective of the certificate, an upper bound on t."""
        return res.dobj if self.nullbasis is not None else self.t0 - res.pobj

    def primal(self, res) -> dict:
        """The variables at the solver's point."""
        if self.nullbasis is not None:
            return _unpack_vars(self.problem, self.x0 + self.nullbasis @ res.y[:-1])
        t = self.value(res)
        w = {block.var: z for block, z in zip(self.problem.blocks, res.Z_blocks)}
        return {v.name: w[v.name] + t * np.eye(v.side) for v in self.problem.variables}

    def certificate(self, res) -> list:
        """The dual certificate, one matrix per PSD block."""
        return res.Z_blocks if self.nullbasis is not None else res.S_blocks


def _var_offsets(problem: SdpProblem) -> dict:
    """Where each variable's coordinates start in the stacked parameter vector."""
    offsets = {}
    off = 0
    for v in problem.variables:
        offsets[v.name] = off
        off += v.nparams
    return offsets


def _unpack_vars(problem: SdpProblem, params: np.ndarray) -> dict:
    """The Hermitian variables behind a stacked parameter vector."""
    return {
        v.name: vec_to_herm(params[off : off + v.nparams], v.side)
        for v, off in zip(problem.variables, _var_offsets(problem).values())
    }


def _constraint_matrix(problem: SdpProblem) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized equality constraints: K params = b.

    Row j of a term's part of K holds the coordinates of the term's
    adjoint applied to the j-th Hermitian basis element E_j of the
    constraint space; the adjoint of a partial trace embeds E_j with
    identities on the traced factors.
    """
    var_offsets = _var_offsets(problem)
    p_total = problem.total_params
    rows = []
    rhs_parts = []
    for con in problem.constraints:
        r_side = con.rhs.shape[0]
        basis = hermitian_basis(r_side)
        kmat = np.zeros((r_side * r_side, p_total))
        for term in con.terms:
            var = problem.variable(term.var)
            off = var_offsets[term.var]
            kept = [i for i in range(len(var.factors)) if i not in term.traced]
            kept_dims = [var.factors[i] for i in kept]
            side = int(np.prod(kept_dims))
            if side != r_side:
                raise ValueError(
                    f"constraint term on {term.var} produces side {side}, "
                    f"rhs has side {r_side}"
                )
            adj = embed_identity_array(basis, kept_dims, var.factors, kept)
            kmat[:, off : off + var.nparams] += herm_to_vec(adj)
        rows.append(kmat)
        rhs_parts.append(herm_to_vec(con.rhs))
    return np.vstack(rows), np.concatenate(rhs_parts)


def _eliminate(problem: SdpProblem,
               null_space: bool = False) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Solve the equality constraints once, for both solvers.

    One SVD of the vectorized constraint matrix gives the minimum-norm
    particular solution x0 and the right singular vectors vh: vh[:rank]
    is an orthonormal basis of the constraint rows and, with
    ``null_space``, vh[rank:] one of the free directions (without it the
    SVD is thin and vh has at most as many rows as the matrix).  Returns
    (x0, vh, rank, removed), ``removed`` counting redundant rows;
    inconsistent right-hand sides raise.
    """
    kmat, bvec = _constraint_matrix(problem)
    u, s, vh = np.linalg.svd(kmat, full_matrices=null_space)
    rank = int(np.sum(s > CONSTRAINT_RANK_TOL * (s[0] if s.size else 1.0)))
    x0 = vh[:rank].T @ ((u[:, :rank].T @ bvec) / s[:rank])
    resid = np.abs(kmat @ x0 - bvec).max() if bvec.size else 0.0
    scale = max(1.0, np.abs(bvec).max() if bvec.size else 1.0)
    if resid > 1e-9 * scale:
        raise ValueError(f"equality constraints are inconsistent (residual {resid:.3e})")
    return x0, vh, rank, kmat.shape[0] - rank


def _is_standard(problem: SdpProblem) -> bool:
    """Whether the PSD blocks are exactly the variables, each once."""
    return (all(block.kind == "identity" for block in problem.blocks)
            and sorted(block.var for block in problem.blocks)
            == sorted(v.name for v in problem.variables))


def compile_ipm(problem: SdpProblem) -> CompiledSdp:
    """Dense complex Hermitian data for the interior-point solver, in
    standard form when the PSD blocks are the variables and in null-space
    form otherwise."""
    if _is_standard(problem):
        comp = _compile_standard(problem)
        # a one-dimensional constraint space fixes t and leaves standard
        # form no rows; the null-space form keeps t as its row
        if comp.m:
            return comp
    return _compile_null_space(problem)


def _compile_standard(problem: SdpProblem) -> CompiledSdp:
    """Z = W = X - tI, with t eliminated along the identity direction.

    With the orthonormal constraint rows R and c = R x0, the constraints
    read R w + t e = c for e = R vec(I).  Their component along e fixes
    t = t0 - <C, W>; the components orthogonal to it, Q^T R w = Q^T c,
    are the rows A_i = mat(R^T q_i).  Maximizing t minimizes <C, W>.
    """
    var_offsets = _var_offsets(problem)
    x0, vh, rank, removed = _eliminate(problem)
    rows = vh[:rank]
    c = rows @ x0
    e = rows @ np.concatenate([herm_to_vec(np.eye(v.side)) for v in problem.variables])
    e_norm = float(np.linalg.norm(e))
    e_hat = e / e_norm
    q = np.linalg.qr(e_hat[:, None], mode="complete")[0][:, 1:]
    a_rows = q.T @ rows
    c_row = (e_hat @ rows) / e_norm

    a_blocks, c_blocks, x0_blocks = [], [], []
    for block in problem.blocks:
        var = problem.variable(block.var)
        o = var_offsets[block.var]
        sl = slice(o, o + var.nparams)
        a_blocks.append(vec_to_herm(a_rows[:, sl], var.side))
        c_blocks.append(vec_to_herm(c_row[sl], var.side))
        x0_blocks.append(vec_to_herm(x0[sl], var.side))
    # start W at the particular solution, shifted into the cone by one
    # multiple of the identity for all blocks so that it stays feasible
    x_scale = max(1.0, max(np.abs(x).max() for x in x0_blocks))
    wmin = min(np.linalg.eigvalsh(x).min() for x in x0_blocks)
    shift = max(0.0, -wmin) + 0.1 * x_scale + 1.0
    z0 = [x + shift * np.eye(x.shape[0]) for x in x0_blocks]

    return CompiledSdp(
        problem=problem,
        x0=x0,
        b=q.T @ c,
        C_blocks=c_blocks,
        A_blocks=a_blocks,
        Z0=z0,
        removed_redundant=removed,
        dropped_directions=0,
        t0=float(e_hat @ c) / e_norm,
    )


def _compile_null_space(problem: SdpProblem) -> CompiledSdp:
    """y = (free coordinates, t), the PSD blocks affine in them."""
    var_offsets = _var_offsets(problem)
    x0, vh, rank, removed = _eliminate(problem, null_space=True)
    nullb = vh[rank:].T  # (P, m0) orthonormal
    m0 = nullb.shape[1]

    # complex block images of the particular solution and the free directions
    img_consts = []
    img_dirs = []
    for block in problem.blocks:
        var = problem.variable(block.var)
        o = var_offsets[block.var]
        sl = slice(o, o + var.nparams)
        img_consts.append(block_image_many(block, var, vec_to_herm(x0[sl], var.side)))
        img_dirs.append(block_image_many(block, var, vec_to_herm(nullb[sl].T, var.side)))

    # reparametrize the free directions so their stacked block images are
    # orthonormal: this drops directions no block sees (maps with kernels
    # create them) and leaves the constraint operator perfectly
    # conditioned, which is what lets the solver reach 1e-9 residuals
    stacked = np.hstack([herm_to_vec(imgs) for imgs in img_dirs])
    u2, s2, vh2 = np.linalg.svd(stacked.T, full_matrices=False)
    # the threshold must see the block operator's own scale, or pure
    # kernel noise (maps annihilating the whole free space) survives
    # and gets amplified by the normalization below
    scale = max(
        float(s2[0]) if s2.size else 0.0,
        max((np.linalg.norm(c) for c in img_consts), default=0.0),
        1e-300,
    )
    rank2 = int(np.sum(s2 > CONSTRAINT_RANK_TOL * scale))
    nullb = nullb @ (vh2[:rank2].T / s2[:rank2][None, :])
    # the new directions' stacked images are the left singular vectors
    sides = [c.shape[0] for c in img_consts]
    cuts = np.cumsum([n * n for n in sides])[:-1]
    parts = np.split(u2[:, :rank2].T, cuts, axis=1)
    img_dirs = [vec_to_herm(part, n) for part, n in zip(parts, sides)]

    m = rank2 + 1
    b = np.zeros(m)
    b[-1] = 1.0  # maximize t
    a_blocks = [np.concatenate([-dirs, np.eye(n)[None]]) for dirs, n in zip(img_dirs, sides)]
    z0 = [np.eye(n, dtype=np.complex128) * (1.0 / sum(sides)) for n in sides]

    return CompiledSdp(
        problem=problem,
        x0=x0,
        b=b,
        C_blocks=img_consts,
        A_blocks=a_blocks,
        Z0=z0,
        removed_redundant=removed,
        dropped_directions=m0 - rank2,
        nullbasis=nullb,
    )
