"""Problem container and compilation for the SDP engine.

A problem has one or more complex Hermitian variables, affine equality
constraints built from partial traces (with Hermitian right-hand sides),
and PSD blocks that are structured linear images of the variables.  The
objective is always "maximize t" with t subtracted from every block, so
the underlying hard feasibility question reads off the sign of the
optimum.

Compilation for the interior-point solver eliminates the equality
constraints exactly: a pivoted orthogonal factorization of the
vectorized constraint matrix yields a particular solution plus an
orthonormal null-space basis, and the PSD blocks become affine in the
remaining free coordinates.  The blocks stay complex Hermitian; the free
coordinates are real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from ..channels import LinearMapRep
from ..linalg import herm_to_vec, hermitian_basis, ptrace_array, ptranspose_array, vec_to_herm

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
# vectorization helpers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _cached_basis(n: int) -> np.ndarray:
    b = hermitian_basis(n)
    b.setflags(write=False)
    return b


# ---------------------------------------------------------------------------
# structured operator application (batched over a stack of matrices)
# ---------------------------------------------------------------------------


def _apply_map_many(arrs: np.ndarray, dims, factor: int, rep: LinearMapRep) -> tuple[np.ndarray, list]:
    big = arrs.shape[0]
    dims = list(dims)
    n = len(dims)
    t = rep.transfer_tensor()
    tens = arrs.reshape(big, *dims, *dims)
    src = [2 * n] + list(range(2 * n))
    t_lbl = [factor, n + factor, 2 * n + 1, 2 * n + 2]
    out_lbl = src.copy()
    out_lbl[1 + factor] = 2 * n + 1
    out_lbl[1 + n + factor] = 2 * n + 2
    res = np.einsum(tens, src, t, t_lbl, out_lbl)
    dims[factor] = rep.d_out
    d_total = int(np.prod(dims))
    return res.reshape(big, d_total, d_total), dims


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
                out, dims = _apply_map_many(out, dims, pos, rep)
        return out
    raise ValueError(f"unknown block kind {block.kind!r}")


def block_side(block: Block, var: VariableSpec) -> int:
    if block.kind == "map_image":
        side = 1
        for pos, d in enumerate(var.factors):
            rep = block.maps[pos]
            side *= d if rep is None else rep.d_out
        return side
    return var.side


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------


@dataclass
class CompiledSdp:
    problem: SdpProblem
    var_offsets: dict
    x0: np.ndarray
    nullbasis: np.ndarray  # (P, m - 1) orthonormal free directions
    b: np.ndarray  # objective: the trailing coordinate is t
    C_blocks: list
    A_blocks: list  # per block: (m, n, n) complex Hermitian, trailing slot is the t column
    block_sides: list
    removed_redundant: int
    dropped_directions: int

    @property
    def m(self) -> int:
        return self.b.shape[0]

    def params_of(self, y: np.ndarray) -> np.ndarray:
        return self.x0 + self.nullbasis @ y[:-1]

    def vars_of(self, params: np.ndarray) -> dict:
        out = {}
        for v in self.problem.variables:
            off, n = self.var_offsets[v.name], v.side
            out[v.name] = vec_to_herm(params[off : off + n * n], n)
        return out


def _basis_chunks(n: int, chunk: int = 512):
    """Yield (start, stack) pieces of the Hermitian basis, bounded memory."""
    total = n * n
    if total <= chunk:
        yield 0, _cached_basis(n)
        return
    eye = np.eye(total)
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        yield start, vec_to_herm(eye[start:stop], n)


def _constraint_matrix(problem: SdpProblem, var_offsets: dict) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized equality constraints: K params = b."""
    p_total = problem.total_params
    rows = []
    rhs_parts = []
    for con in problem.constraints:
        r_side = con.rhs.shape[0]
        r_params = r_side * r_side
        kmat = np.zeros((r_params, p_total))
        for term in con.terms:
            var = problem.variable(term.var)
            off = var_offsets[term.var]
            for start, stack in _basis_chunks(var.side):
                imgs = ptrace_array(stack, var.factors, term.traced) if term.traced else stack
                if imgs.shape[-1] != r_side:
                    raise ValueError(
                        f"constraint term on {term.var} produces side {imgs.shape[-1]}, "
                        f"rhs has side {r_side}"
                    )
                kmat[:, off + start : off + start + stack.shape[0]] += herm_to_vec(imgs).T
        rows.append(kmat)
        rhs_parts.append(herm_to_vec(con.rhs))
    return np.vstack(rows), np.concatenate(rhs_parts)


def compile_ipm(problem: SdpProblem) -> CompiledSdp:
    """Dense complex Hermitian form for the interior-point solver."""
    var_offsets = {}
    off = 0
    for v in problem.variables:
        var_offsets[v.name] = off
        off += v.nparams

    kmat, bvec = _constraint_matrix(problem, var_offsets)
    u, s, vh = np.linalg.svd(kmat, full_matrices=True)
    rank = int(np.sum(s > CONSTRAINT_RANK_TOL * (s[0] if s.size else 1.0)))
    removed = kmat.shape[0] - rank
    # particular solution via the pseudo-inverse; reject inconsistent rhs
    x0 = vh[:rank].T @ ((u[:, :rank].T @ bvec) / s[:rank])
    resid = np.abs(kmat @ x0 - bvec).max() if bvec.size else 0.0
    scale = max(1.0, np.abs(bvec).max() if bvec.size else 1.0)
    if resid > 1e-9 * scale:
        raise ValueError(f"equality constraints are inconsistent (residual {resid:.3e})")
    nullb = vh[rank:].T  # (P, m0) orthonormal

    m0 = nullb.shape[1]
    # complex block images of the particular solution and the free directions
    img_consts = []
    img_dirs = []
    sides = []
    for block in problem.blocks:
        var = problem.variable(block.var)
        o = var_offsets[block.var]
        sl = slice(o, o + var.nparams)
        const_mat = vec_to_herm(x0[sl][None, :], var.side)
        img_consts.append(block_image_many(block, var, const_mat)[0])
        dir_mats = vec_to_herm(nullb[sl].T, var.side) if m0 else np.zeros(
            (0, var.side, var.side), dtype=np.complex128
        )
        img_dirs.append(block_image_many(block, var, dir_mats))
        sides.append(block_side(block, var))

    # reparametrize the free directions so their stacked block images are
    # orthonormal: this drops directions no block sees (maps with kernels
    # create them) and leaves the constraint operator perfectly
    # conditioned, which is what lets the solver reach 1e-9 residuals
    dropped = 0
    if m0:
        stacked = np.hstack([herm_to_vec(imgs) if imgs.size else
                             np.zeros((m0, 0)) for imgs in img_dirs])
        _u2, s2, vh2 = np.linalg.svd(stacked.T, full_matrices=False)
        # the threshold must see the block operator's own scale, or pure
        # kernel noise (maps annihilating the whole free space) survives
        # and gets amplified by the normalization below
        scale = max(
            float(s2[0]) if s2.size else 0.0,
            max((np.linalg.norm(c) for c in img_consts), default=0.0),
            1e-300,
        )
        rank2 = int(np.sum(s2 > CONSTRAINT_RANK_TOL * scale))
        dropped = m0 - rank2
        w = vh2[:rank2].T / s2[:rank2][None, :]
        nullb = nullb @ w
        img_dirs = [np.einsum("jab,jk->kab", imgs, w) if imgs.size else
                    imgs[:rank2] for imgs in img_dirs]
        m0 = rank2

    m = m0 + 1
    b = np.zeros(m)
    b[-1] = 1.0  # maximize t

    c_blocks = []
    a_blocks = []
    for const, dirs, side in zip(img_consts, img_dirs, sides):
        c_blocks.append(const)
        a = np.empty((m, side, side), dtype=np.complex128)
        if m0:
            a[:-1] = -dirs
        a[-1] = np.eye(side)
        a_blocks.append(a)

    return CompiledSdp(
        problem=problem,
        var_offsets=var_offsets,
        x0=x0,
        nullbasis=nullb,
        b=b,
        C_blocks=c_blocks,
        A_blocks=a_blocks,
        block_sides=sides,
        removed_redundant=removed,
        dropped_directions=dropped,
    )
