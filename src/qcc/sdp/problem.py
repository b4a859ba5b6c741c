"""Problem container and compilation for the SDP engine.

A problem has one Hermitian variable X on a product of factors, affine
equality constraints that fix partial traces of X (with Hermitian
right-hand sides, checked when the problem is built), and PSD blocks
that are structured linear images of X.  Every question the package
decides has this shape: the compatibilizer, the joint state, the
k-extension, the operator A of the Jordan program, and a joint
measurement, which is the compatibilizer of two measurement channels.
The objective is always "maximize t" with t subtracted from every block,
so the underlying hard feasibility question reads off the sign of the
optimum.

The vectorized constraint matrix is built from the adjoints: the rows
of a partial-trace constraint are the identity embeddings of the
constraint space's Hermitian basis, so no variable basis is ever traced.
The elimination (``_eliminate``) yields a particular solution and an
orthonormal basis of the constraint rows from an eigendecomposition of
the constraint Gram matrix K K^T.  The projection solver and both
interior-point forms use it; the null-space form completes the rows to
an orthonormal basis by a QR factorization and keeps the rest as the
free directions.

Compilation for the interior-point solver takes one of two forms,
chosen from the block kinds:

- standard form, when the one PSD block is X itself (compat, the PPT
  relaxation, state compat, the k-extension and POVM compat).  The
  solver's Z is W = X - tI, t is eliminated along the identity
  direction, and the Schur system has one row per constraint dimension
  less one, rank(K) - 1: 152 for qutrit compat.  Its rows are
  A_i = sum_p G_ip Tr*(E_p) over the constraint rows p, so the Schur
  matrix is G M(V) G^T with M(V) read off a few products of the
  NT-scaled block V with itself (``_SchurPlan``), never from the
  (m, 1, n, n) constraint tensor, which stays for A(y) and A^*(Z).
- null-space form, when a block is a partial transpose or a map image:
  the full PPT program (stage B of a PPT decision), and the Jordan
  program, which ``decide`` runs only when a channel map is singular
  (for an invertible pair it solves the compat program instead).
  Standard form would need a W per block, linked to X by n^2 more rows
  each (881 for qutrit PPT) or by inverses of the channel maps.  The
  PSD blocks are affine in the free coordinates, reparametrized so that
  their block images are orthonormal, and the Schur system has one row
  per free direction plus t: 577 for the qutrit Jordan program.  Its
  Schur matrix is the Gram matrix of the NT-scaled constraint blocks.

The field is part of a program's structure.  A program is real
(``SdpProblem.real``) when every right-hand side and every map of a
``map_image`` block has imaginary part exactly 0; complex conjugation
then maps its feasible points to feasible points, so it has a real
optimum and a real certificate (Gatermann-Parrilo 2004).  A real
program is compiled over the real symmetric matrices: its coordinates
are those of ``linalg.symmetric_basis``, n(n+1)/2 of them where the
complex Hermitian matrices have n^2, the constraint matrix K is the
complex K on its real rows and columns (K is block-diagonal in
(re, im) for partial traces), and every array the solvers see is
float64.  Its Schur system has about half the rows: 16 instead of 27
for qubit compat, 83 instead of 152 for qutrit compat.  Any other
program is compiled as complex Hermitian.  Either way the Schur
system is real, and the blocks are an array axis: every block's image
has one side n (``SdpProblem`` checks it), so the objective and the
starting point are (blocks, n, n) stacks and the constraints one
(m, blocks, n, n) array.

Programs of one structure (``_plan_key``: the factors of X, the factors
each constraint traces out and the field) differ only in their
right-hand sides and blocks, and sweeps and decide loops solve hundreds
of them.  One cache of 64 structures (``_structure_of``) holds, as
read-only arrays, what the structure fixes: K, ``coords`` and ``vh`` of
the elimination and, for standard form, e, Q, G, the constraint and
objective blocks and the Schur plan.  Each compile computes only its own
right-hand side b, x0 and the consistency residual K x0 - b, and in
standard form c, b, t0 and Z0; the null-space form also builds its free
directions and block images per problem, since the blocks change them.
A cached compile is bit-identical to an uncached one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..channels import LinearMapRep, apply_to_factor
from ..linalg import (
    HERMITICITY_TOL,
    embed_identity_array,
    herm_to_vec,
    hermitian_basis,
    ptrace_array,
    ptranspose_array,
    symmetric_basis,
    vec_to_herm,
)
from ..witness import DECISION_TOL
from .ipm import _as_real, _ct

CONSTRAINT_RANK_TOL = 1e-10  # on the null-space form's block-image singular values, relative
# on eigenvalues of K K^T (squared singular values), relative to the
# largest: the null ones come out at ~1e-15 and the smallest nonzero one
# is 3 against 6 at qutrit compat, so this cut gives the rank of an SVD
# of K at a 1e-10 cut on every builder, where (1e-10)^2 would sit below
# the Gram matrix's rounding
GRAM_RANK_TOL = 1e-10


@dataclass(frozen=True)
class Constraint:
    """Tr_traced(X) = rhs: the partial trace of X over the factors
    ``traced`` (none keeps X whole) is fixed."""

    traced: tuple[int, ...]
    rhs: np.ndarray


@dataclass(frozen=True)
class Block:
    """A PSD block: a structured linear image of X.

    kind "identity": X itself.
    kind "ptranspose": partial transpose on one factor.
    kind "map_image": maps applied factor-wise (None leaves a factor alone).
    """

    kind: str = "identity"
    factor: Optional[int] = None
    maps: Optional[tuple[Optional[LinearMapRep], ...]] = None


def _kept_side(factors: tuple, traced: tuple) -> int:
    return math.prod(d for i, d in enumerate(factors) if i not in traced)


@dataclass
class SdpProblem:
    """Maximize t over one Hermitian X on the product of ``factors``,
    subject to ``constraints`` and every block minus tI PSD.

    The indices a constraint traces out, a partial transpose's factor and
    the number of a map image's maps are checked when the problem is built,
    and so are each right-hand side's shape and its Hermiticity (to
    ``linalg.HERMITICITY_TOL``, scaled as ``HermitianMatrix`` scales it): a
    bad one raises a ``ValueError`` that names it.  Every block's image must
    have the same side, so the blocks stack on one array axis; blocks that
    differ raise a ``ValueError`` that names them.
    """

    factors: tuple[int, ...]
    constraints: tuple[Constraint, ...]
    blocks: tuple[Block, ...]
    name: str = ""

    def __post_init__(self):
        nf = len(self.factors)
        for con in self.constraints:
            for i in con.traced:
                if not 0 <= i < nf:
                    raise ValueError(f"traced index {i} out of range for {nf} factors")
            if len(set(con.traced)) != len(con.traced):
                raise ValueError(f"traced indices {con.traced} repeat a factor")
            side = _kept_side(self.factors, con.traced)
            if con.rhs.shape != (side, side):
                raise ValueError(f"constraint tracing {con.traced} leaves side {side}, "
                                 f"rhs has shape {con.rhs.shape}")
            # the coordinates read only the upper triangle, so a rhs that is
            # not Hermitian would be solved as a different one
            dev = np.abs(con.rhs - con.rhs.conj().T).max()
            if dev > HERMITICITY_TOL * max(1.0, np.abs(con.rhs).max()):
                raise ValueError(f"constraint tracing {con.traced} has a rhs that is not "
                                 f"Hermitian: max |M - M^dag| = {dev:.3e}")
        for b, block in enumerate(self.blocks):
            if block.kind == "ptranspose" and not (block.factor is not None
                                                   and 0 <= block.factor < nf):
                raise ValueError(f"ptranspose factor {block.factor} out of range "
                                 f"for {nf} factors")
            n_maps = len(block.maps or ())
            if block.kind == "map_image" and n_maps != nf:
                raise ValueError(f"map_image block {b} has {n_maps} maps for {nf} factors")
        sides = [math.prod(d if rep is None else rep.d_out
                           for d, rep in zip(self.factors, block.maps))
                 if block.kind == "map_image" else self.side for block in self.blocks]
        for b, side in enumerate(sides):
            if side != sides[0]:
                raise ValueError(f"block {b} has image side {side}, block 0 has {sides[0]}")

    @property
    def side(self) -> int:
        return math.prod(self.factors)

    @functools.cached_property
    def real(self) -> bool:
        """The program's field: real when every right-hand side and every
        map of a ``map_image`` block has imaginary part exactly 0.

        Complex conjugation then maps feasible points to feasible points,
        so Re X of a feasible X is feasible, and the optimum and its
        certificate are real symmetric matrices.  A real program is
        compiled and solved over them, in float64.
        """
        arrays = [con.rhs for con in self.constraints] + [
            rep.choi.array for block in self.blocks if block.kind == "map_image"
            for rep in block.maps if rep is not None]
        return not any(np.iscomplexobj(arr) and arr.imag.any() for arr in arrays)


def _in_field(arr: np.ndarray, real: bool) -> np.ndarray:
    """A matrix of a program in the program's field: its real part, all
    there is of it on a real program, or the complex matrix."""
    return arr.real if real else np.asarray(arr, dtype=np.complex128)


@dataclass
class SdpOutcome:
    """Result of a solve: three-valued status plus certificates and residuals.

    ``primal`` is the matrix X at the solver's point and ``dual`` the
    certificate, one matrix per PSD block in a (blocks, n, n) stack; an
    Inconclusive solve has neither.  The decision band is a
    floating-point artifact: optima within ``sdp.DECISION_TOL`` of zero
    are not trustworthy sign decisions, which is flagged in ``note``.
    """

    status: str
    value: float
    primal: Optional[np.ndarray] = None
    dual: Optional[np.ndarray] = None
    residuals: dict = field(default_factory=dict)
    iterations: int = 0
    note: str = ""


# ---------------------------------------------------------------------------
# structured operator application (batched over a stack of matrices)
# ---------------------------------------------------------------------------


def block_images(problem: SdpProblem, arrs: np.ndarray) -> np.ndarray:
    """Every block's image of a matrix, or of a stack of matrices, on the
    problem's factors: (blocks, ..., n, n)."""

    def image(block):
        if block.kind == "identity":
            return arrs
        if block.kind == "ptranspose":
            return ptranspose_array(arrs, problem.factors, block.factor)
        if block.kind == "map_image":
            dims = list(problem.factors)
            out = arrs
            for pos, rep in enumerate(block.maps):
                if rep is not None:
                    out, dims = apply_to_factor(out, dims, pos, rep)
            return out
        raise ValueError(f"unknown block kind {block.kind!r}")

    return np.stack([image(block) for block in problem.blocks])


# least eigenvalue a projection point may have and still count as PSD
FEAS_PSD_TOL = 1e-9


def primal_failure(problem: SdpProblem, x: np.ndarray) -> str:
    """Why X is not a feasible point of ``problem``, or "" when it is one.

    Checked from the problem alone, without the solver's arrays: every
    constraint's partial trace of X must be within ``DECISION_TOL`` of its
    right-hand side in every entry, and every block's image of X must have
    its least eigenvalue at or above ``-FEAS_PSD_TOL``.  The first failing
    check is returned.
    """
    for con in problem.constraints:
        dev = float(np.abs(ptrace_array(x, problem.factors, con.traced) - con.rhs).max())
        if not dev <= DECISION_TOL:
            return (f"constraint tracing {con.traced} is off its rhs by {dev:.3g}, "
                    f"above {DECISION_TOL:g}")
    lows = np.linalg.eigvalsh(block_images(problem, x)).min(axis=-1)
    fails = ~(lows >= -FEAS_PSD_TOL)
    if fails.any():
        b = int(fails.argmax())
        return (f"{problem.blocks[b].kind} block {b} has least eigenvalue {lows[b]:.3g}, "
                f"below {-FEAS_PSD_TOL:g}")
    return ""


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------


@dataclass
class CompiledSdp:
    """The interior-point data of a problem and the read-out of a solve.

    ``solve_ipm`` works on the pair of its module docstring: y and
    S = C - A(y) on one side, Z with A^*(Z) = b on the other.  Which side
    holds X depends on the form:

    - null-space form (``nullbasis`` set): y = (free coordinates, t),
      S = X - tI per block image, and Z is the certificate;
    - standard form (``nullbasis`` None): the one block Z = W = X - tI
      with t = t0 - <C, W>, and S is the certificate.

    Either way the certificate has trace 1 and lies in the range of the
    constraint adjoints, and ``Z0`` is where the solver starts Z.  ``schur``
    forms the solver's Schur matrix at each NT scaling point.  The blocks are
    an array axis: ``C_blocks`` and ``Z0`` are (blocks, n, n) and
    ``A_blocks`` is (m, blocks, n, n), real symmetric float64 on a real
    program and complex Hermitian otherwise, with one block in standard form
    and one per PSD block in the null-space form.  In standard form
    ``A_blocks``, ``C_blocks``, ``gmat`` and ``plan`` are the structure
    cache's read-only arrays, shared by every problem of the structure.
    """

    problem: SdpProblem
    x0: np.ndarray
    b: np.ndarray
    C_blocks: np.ndarray
    A_blocks: np.ndarray
    Z0: np.ndarray
    removed_redundant: int
    dropped_directions: int
    nullbasis: Optional[np.ndarray] = None  # (P, m - 1) free directions, null-space form
    t0: float = 0.0  # t at W = 0, standard form
    gmat: Optional[np.ndarray] = None  # standard form: A_i = sum_p G_ip Tr*(E_p)
    plan: Optional["_SchurPlan"] = None  # standard form

    @property
    def m(self) -> int:
        return self.b.shape[0]

    def value(self, res) -> float:
        """The optimal t."""
        return res.pobj if self.nullbasis is not None else self.t0 - res.dobj

    def dual_objective(self, res) -> float:
        """The objective of the certificate, an upper bound on t."""
        return res.dobj if self.nullbasis is not None else self.t0 - res.pobj

    def primal(self, res) -> np.ndarray:
        """X at the solver's point."""
        side = self.problem.side
        if self.nullbasis is not None:
            return vec_to_herm(self.x0 + self.nullbasis @ res.y[:-1], side, self.problem.real)
        return res.Z_blocks[0] + self.value(res) * np.eye(side)

    def certificate(self, res) -> np.ndarray:
        """The dual certificate, one matrix per PSD block."""
        return res.Z_blocks if self.nullbasis is not None else res.S_blocks

    def schur(self, rinvs: np.ndarray) -> np.ndarray:
        """The Schur matrix Re Tr(A_i V A_j V), summed over the blocks, at
        the inverse NT scaling V = Rinv^H Rinv of each block of the
        (blocks, n, n) stack ``rinvs``.

        Standard form takes it from the constraint structure, as
        G M(V) G^T (``_SchurPlan``); the null-space form as the Gram
        matrix of the scaled constraint blocks Rinv A_i Rinv^H, each row
        i holding every block.
        """
        if self.plan is None:
            scaled = _as_real(rinvs @ self.A_blocks @ _ct(rinvs)).reshape(self.m, -1)
            return scaled @ scaled.T
        schur = self.gmat @ self.plan.gram(rinvs[0]) @ self.gmat.T
        return (schur + schur.T) / 2


# ---------------------------------------------------------------------------
# the standard-form Schur matrix from the constraint structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SchurPlan:
    """How to form M(V)[p, q] = Re Tr[Tr*_a(E_p) V Tr*_b(E_q) V] for all
    constraint rows p, q, where constraint a traces out the factors a and
    E_p runs over the ``hermitian_basis`` of its right-hand side, or the
    ``symmetric_basis`` on a real program (Tr* embeds it with identities
    on the traced factors).

    Written out on V's factor indices, each pair of constraints is one
    matrix product of two permuted views of V,
    V[(a', t), (b, s)] V[(b', s), (a, t)] summed over the traced factors
    t of a and s of b, and its entry at (a', b, b', a) is the coefficient
    of E_p[a, a'] E_q[b, b'] in M[p, q].  ``gram`` writes those products
    into one buffer, complex or, for a real V, float, and gathers M from
    its float view by ``index``, four entries per (p, q) since every
    basis element has at most two.  Each basis coefficient is real or
    purely imaginary, so ``coef`` reads one real or imaginary part.  Each
    pair of constraints is multiplied once; the mirrored pair reads it
    transposed.
    """

    shape: tuple  # V's shape as a tensor over (row, column) factors
    products: tuple  # (left axes, left shape, right axes, right shape, buffer slice)
    size: int  # entries in the buffer
    index: np.ndarray  # (4, rows, rows) into the buffer's float view
    coef: np.ndarray  # (4, rows, rows)

    def gram(self, rinv: np.ndarray) -> np.ndarray:
        """M(V) over all constraint rows, V = Rinv^H Rinv."""
        v = (_ct(rinv) @ rinv).reshape(self.shape)
        buf = np.empty(self.size, dtype=v.dtype)
        for laxes, lshape, raxes, rshape, sl in self.products:
            buf[sl] = (v.transpose(laxes).reshape(lshape)
                       @ v.transpose(raxes).reshape(rshape)).ravel()
        return (self.coef * buf.view(np.float64)[self.index]).sum(axis=0)


def _basis(r: int, real: bool) -> np.ndarray:
    """The basis of the side-r matrices of a program's field."""
    return symmetric_basis(r) if real else hermitian_basis(r)


def _basis_entries(r: int, real: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and coefficients of the two entries of each basis
    element (``_basis``), a diagonal unit's second entry with
    coefficient 0."""
    basis = _basis(r, real)
    rows = np.zeros((len(basis), 2), dtype=np.intp)
    cols = np.zeros((len(basis), 2), dtype=np.intp)
    coefs = np.zeros((len(basis), 2), dtype=np.complex128)
    for p, e in enumerate(basis):
        i, j = np.nonzero(e)
        rows[p, : i.size], cols[p, : j.size] = i, j
        coefs[p, : i.size] = e[i, j]
    return rows, cols, coefs


def _pair_axes(factors: tuple, traced_a: tuple, traced_b: tuple) -> tuple:
    """Axes and shapes of the two views of V whose product holds one pair
    of constraints, on V reshaped to (factors, factors)."""
    f = len(factors)
    kept_a = [i for i in range(f) if i not in traced_a]
    kept_b = [i for i in range(f) if i not in traced_b]

    def size(axes):
        return math.prod(factors[i] for i in axes)

    ra, rb, ta, tb = size(kept_a), size(kept_b), size(traced_a), size(traced_b)
    left = kept_a + [f + i for i in kept_b] + list(traced_a) + [f + i for i in traced_b]
    right = [f + i for i in traced_a] + list(traced_b) + kept_b + [f + i for i in kept_a]
    return tuple(left), (ra * rb, ta * tb), tuple(right), (ta * tb, rb * ra)


def _schur_plan(factors: tuple, traceds: tuple, real: bool) -> _SchurPlan:
    """The Schur plan of one problem structure (``_plan_key``)."""
    sides = [_kept_side(factors, traced) for traced in traceds]
    entries = {r: _basis_entries(r, real) for r in set(sides)}
    counts = [len(entries[r][0]) for r in sides]  # constraint rows
    starts = np.concatenate([[0], np.cumsum(counts)]).astype(int)
    nrows = starts[-1]
    width = 1 if real else 2  # float64 slots per buffer entry
    index = np.zeros((4, nrows, nrows), dtype=np.intp)
    coef = np.zeros((4, nrows, nrows))
    products = []
    size = 0
    for c1, (r1, ta) in enumerate(zip(sides, traceds)):
        for c2 in range(c1, len(traceds)):
            r2, tb = sides[c2], traceds[c2]
            sl = slice(size, size + r1 * r1 * r2 * r2)
            products.append((*_pair_axes(factors, ta, tb), sl))
            # entry (a', b, b', a) of the slot, for E_p = sum_s c_s |i_s><j_s|
            # and E_q = sum_t c_t |k_t><l_t|
            i, j, ce = entries[r1]
            k, l, cf = entries[r2]
            flat = (size + (j * r2 * r2 * r1 + i)[:, :, None, None]
                    + (k * r2 * r1 + l * r1)[None, None])
            cc = ce[:, :, None, None] * cf[None, None]
            real_c = cc.imag == 0
            # Re(c x) reads Re x for a real c and -Im(c) Im x for an imaginary one
            ridx = np.where(real_c, width * flat, width * flat + 1)
            rcoef = np.where(real_c, cc.real, -cc.imag)
            p_sl = slice(starts[c1], starts[c1 + 1])
            q_sl = slice(starts[c2], starts[c2 + 1])
            pq = (4, counts[c1], counts[c2])
            index[:, p_sl, q_sl] = ridx.transpose(1, 3, 0, 2).reshape(pq)
            coef[:, p_sl, q_sl] = rcoef.transpose(1, 3, 0, 2).reshape(pq)
            if c2 != c1:
                index[:, q_sl, p_sl] = index[:, p_sl, q_sl].transpose(0, 2, 1)
                coef[:, q_sl, p_sl] = coef[:, p_sl, q_sl].transpose(0, 2, 1)
            size = sl.stop
    return _SchurPlan(tuple(factors) * 2, tuple(products), size, index, coef)


def _constraint_matrix(factors: tuple, traceds: tuple, real: bool) -> np.ndarray:
    """Vectorized equality constraints: the K of K vec(X) = b, from a
    structure's factors, traced factors and field (``_plan_key``).

    Row j of a constraint's part of K holds the coordinates of the
    adjoint of its partial trace applied to the j-th basis element E_j
    of the constraint space, which embeds E_j with identities on the
    traced factors.  The adjoint maps real symmetric matrices to real
    symmetric ones and imaginary antisymmetric ones to imaginary
    antisymmetric ones, so K is block-diagonal in (re, im) coordinates,
    and the real field's K (over ``symmetric_basis``) is the complex K
    restricted to its real rows and columns.
    """
    rows = []
    for traced in traceds:
        kept = [i for i in range(len(factors)) if i not in traced]
        kept_dims = [factors[i] for i in kept]
        basis = _basis(math.prod(kept_dims), real)
        rows.append(herm_to_vec(embed_identity_array(basis, kept_dims, factors, kept), real))
    return np.vstack(rows)


# ---------------------------------------------------------------------------
# what one problem structure fixes, computed once
# ---------------------------------------------------------------------------


def _plan_key(problem: SdpProblem) -> tuple:
    """A problem's structure: the factors of X, what each constraint
    traces out and the field (``SdpProblem.real``); everything but the
    right-hand sides and the blocks."""
    return (tuple(problem.factors), tuple(tuple(con.traced) for con in problem.constraints),
            problem.real)


def _read_only(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.setflags(write=False)


@dataclass(frozen=True)
class _StandardForm:
    """The standard-form data of one structure (``_compile_standard``)."""

    e_hat: np.ndarray  # the identity direction R vec(I) of the rows, normalized
    e_norm: float  # |R vec(I)|
    q: np.ndarray  # (rank, rank - 1) orthonormal complement of e_hat
    gmat: np.ndarray  # Q^T coords: A_i = sum_p G_ip Tr*(E_p)
    A_blocks: np.ndarray  # the one block: (rank - 1, 1, n, n), in the field
    C_blocks: np.ndarray  # (1, n, n)
    plan: _SchurPlan


class _Structure:
    """The elimination of one problem structure (``_plan_key``), shared
    read-only by every problem of that structure.

    The constraint rows come from an eigendecomposition of the Gram
    matrix K K^T = U diag(lam) U^T of the vectorized constraint matrix K:
    with the nonzero eigenvalues lam_r, coords = (U_r / sqrt(lam_r))^T
    maps K onto the orthonormal rows vh = coords @ K.  The Gram matrix is
    rows x rows (162 x 162 for qutrit compat), so this costs about an
    eighth of the thin SVD of K.  ``standard`` holds the standard-form
    data, built at the first standard-form compile: the one block of
    such a problem is X itself, so the blocks need no place in the key.
    """

    def __init__(self, key: tuple):
        self.key = key
        self.real = key[2]
        self.kmat = _constraint_matrix(*key)
        lam, u = np.linalg.eigh(self.kmat @ self.kmat.T)
        keep = lam > GRAM_RANK_TOL * (lam[-1] if lam.size else 1.0)
        self.coords = (u[:, keep] / np.sqrt(lam[keep])).T
        self.vh = self.coords @ self.kmat  # (rank, P)
        self.rank = self.vh.shape[0]
        self.removed = self.kmat.shape[0] - self.rank  # redundant constraint rows
        _read_only(self.kmat, self.coords, self.vh)

    @functools.cached_property
    def standard(self) -> _StandardForm:
        """With the orthonormal constraint rows R, e = R vec(I), Q
        completing e to an orthonormal basis, the rows A_i = mat(R^T q_i)
        and the objective C = mat(R^T e) / |e|^2 (``_compile_standard``)."""
        n = math.prod(self.key[0])
        rows = self.vh
        e = rows @ herm_to_vec(np.eye(n), self.real)
        e_norm = float(np.linalg.norm(e))
        e_hat = e / e_norm
        q = np.linalg.qr(e_hat[:, None], mode="complete")[0][:, 1:]
        a_block = vec_to_herm(q.T @ rows, n, self.real)
        c_block = vec_to_herm((e_hat @ rows) / e_norm, n, self.real)
        gmat = q.T @ self.coords
        plan = _schur_plan(*self.key)
        _read_only(e_hat, q, gmat, a_block, c_block, plan.index, plan.coef)
        return _StandardForm(e_hat, e_norm, q, gmat, a_block[:, None], c_block[None], plan)


@functools.lru_cache(maxsize=64)
def _structure_of(key: tuple) -> _Structure:
    return _Structure(key)


def _eliminate(problem: SdpProblem) -> tuple[_Structure, np.ndarray]:
    """Solve the equality constraints, for both solvers: the problem's
    cached structure and its minimum-norm particular solution
    x0 = vh^T (coords @ b).  Inconsistent right-hand sides raise."""
    st = _structure_of(_plan_key(problem))
    bvec = np.concatenate([herm_to_vec(_in_field(con.rhs, st.real), st.real)
                           for con in problem.constraints])
    x0 = st.vh.T @ (st.coords @ bvec)
    resid = np.abs(st.kmat @ x0 - bvec).max() if bvec.size else 0.0
    scale = max(1.0, np.abs(bvec).max() if bvec.size else 1.0)
    if resid > 1e-9 * scale:
        raise ValueError(f"equality constraints are inconsistent (residual {resid:.3e})")
    return st, x0


def compile_ipm(problem: SdpProblem) -> CompiledSdp:
    """Dense data for the interior-point solver, in standard form when the
    one PSD block is X itself and in null-space form otherwise: float64
    real symmetric on a real program (``SdpProblem.real``), complex
    Hermitian otherwise."""
    if [block.kind for block in problem.blocks] == ["identity"]:
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
    Only x0, c, b = Q^T c, t0 and Z0 depend on the right-hand sides; the
    rest comes from the structure cache.
    """
    st, x0 = _eliminate(problem)
    std = st.standard
    c = st.vh @ x0

    # start W at the particular solution, shifted into the cone by a
    # multiple of the identity
    x = vec_to_herm(x0, problem.side, st.real)
    x_scale = max(1.0, np.abs(x).max())
    shift = max(0.0, -np.linalg.eigvalsh(x).min()) + 0.1 * x_scale + 1.0

    return CompiledSdp(
        problem=problem,
        x0=x0,
        b=std.q.T @ c,
        C_blocks=std.C_blocks,
        A_blocks=std.A_blocks,
        Z0=(x + shift * np.eye(x.shape[0]))[None],
        removed_redundant=st.removed,
        dropped_directions=0,
        t0=float(std.e_hat @ c) / std.e_norm,
        gmat=std.gmat,
        plan=std.plan,
    )


def _compile_null_space(problem: SdpProblem) -> CompiledSdp:
    """y = (free coordinates, t), the PSD blocks affine in them."""
    st, x0 = _eliminate(problem)
    # the free directions complete the orthonormal constraint rows
    nullb = np.linalg.qr(st.vh.T, mode="complete")[0][:, st.rank :]  # (P, m0) orthonormal
    m0 = nullb.shape[1]

    # block images of the particular solution, (blocks, n, n), and of the
    # free directions, (blocks, m0, n, n)
    img_consts = block_images(problem, vec_to_herm(x0, problem.side, st.real))
    img_dirs = block_images(problem, vec_to_herm(nullb.T, problem.side, st.real))
    nblocks, n = img_consts.shape[:2]

    # reparametrize the free directions so their stacked block images are
    # orthonormal: this drops directions no block sees (maps with kernels
    # create them) and leaves the constraint operator perfectly
    # conditioned, which is what lets the solver reach 1e-9 residuals
    stacked = herm_to_vec(img_dirs, st.real)  # (blocks, m0, coordinates)
    ncoord = stacked.shape[-1]
    stacked = stacked.transpose(1, 0, 2).reshape(m0, nblocks * ncoord)
    u2, s2, vh2 = np.linalg.svd(stacked.T, full_matrices=False)
    # the threshold must see the block operator's own scale, or pure
    # kernel noise (maps annihilating the whole free space) survives
    # and gets amplified by the normalization below
    scale = max(
        float(s2[0]) if s2.size else 0.0,
        float(np.linalg.norm(img_consts, axis=(-2, -1)).max()),
        1e-300,
    )
    rank2 = int(np.sum(s2 > CONSTRAINT_RANK_TOL * scale))
    nullb = nullb @ (vh2[:rank2].T / s2[:rank2][None, :])
    # the new directions' stacked images are the left singular vectors
    img_dirs = vec_to_herm(u2[:, :rank2].T.reshape(rank2, nblocks, ncoord), n, st.real)

    m = rank2 + 1
    b = np.zeros(m)
    b[-1] = 1.0  # maximize t
    a_blocks = np.concatenate([-img_dirs, np.broadcast_to(np.eye(n), (1, nblocks, n, n))])
    z0 = np.repeat(_in_field(np.eye(n), st.real)[None] * (1.0 / (nblocks * n)), nblocks, axis=0)

    return CompiledSdp(
        problem=problem,
        x0=x0,
        b=b,
        C_blocks=img_consts,
        A_blocks=a_blocks,
        Z0=z0,
        removed_redundant=st.removed,
        dropped_directions=m0 - rank2,
        nullbasis=nullb,
    )
