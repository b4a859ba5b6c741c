"""Problem container, compilation and certificate read-out for the SDP engine.

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

The vectorized constraint matrix K is built from the adjoints: the rows
of a partial-trace constraint are the identity embeddings of the
constraint space's Hermitian basis, so no variable basis is ever traced.
The elimination (``_eliminate``) yields a particular solution x0 and
orthonormal constraint rows vh = coords K from an eigendecomposition of
the Gram matrix K K^T, and checks that the right-hand sides are
consistent.  A program computes it once, in its own field, as
``SdpProblem.elimination``; every solver form and both read-outs use it:

- ``multipliers`` reads a Farkas certificate out of any program: one
  Y_c per constraint, whose adjoint sum is the projection of a solve's
  dual (or of its block duals' adjoint sum) onto the range of the
  constraint adjoints, checked by ``farkas_check``;
- ``project_point`` reads a point out: the nearest point of the
  constraints' affine set, checked by ``primal_check``.

Both read a matrix with an imaginary part over the complex field, also on
a real program.  ``certify`` checks a solve's point or reads and checks its
Farkas certificate, on any program; ``sdp.solve`` runs it on every
Feasible or Infeasible outcome, of either solver.

Each PSD block is X's image under one map (or None) per factor
(``Block``).  Compilation for the interior-point solver takes one of two
forms, chosen from the blocks:

- standard form, when the one PSD block is X itself (compat, the PPT
  relaxation, state compat, the k-extension and POVM compat).  The
  solver's Z is W = X - tI, t is eliminated along the identity
  direction, and the Schur system has rank(K) - 1 rows (152 for qutrit
  compat).  Its rows are A_i = sum_p G_ip Tr*(E_p) over the constraint
  rows p, so the Schur matrix is G M(V) G^T with M(V) read off a few
  products of the NT-scaled block V with itself (``_SchurPlan``).
- null-space form, when a block applies a map (a partial transpose too):
  the full PPT program and the Jordan program (which ``decide`` runs
  only when a channel map is singular).  Standard form would need a W
  per block, linked to X by n^2 more rows each (881 for qutrit PPT) or
  by inverses of the channel maps.  The PSD blocks are affine in
  the free coordinates, reparametrized so that their block images are
  orthonormal; the Schur system has one row per free direction plus t
  (577 for the qutrit Jordan program) and is the Gram matrix of the
  NT-scaled constraint blocks.

The field is part of a program's structure.  A program is real
(``SdpProblem.real``) when every right-hand side and every block's map
has imaginary part exactly 0; complex conjugation then maps its feasible
points to feasible points, so it has a real optimum and a real
certificate (Gatermann-Parrilo 2004), and it is compiled over the real
symmetric matrices (``linalg.symmetric_basis``, n(n+1)/2 coordinates,
float64 throughout).  Either way the Schur system is real, and the
blocks are an array axis: every block's image has one side n, so the
objective and the starting point are (blocks, n, n) stacks and the
constraints one (m, blocks, n, n) array.

Programs of one structure (``_plan_key``: the factors of X, the factors
each constraint traces out and the field) differ only in their
right-hand sides and blocks.  One cache of 64 structures
(``_structure_of``) holds, read-only, what the structure fixes: K,
``coords`` and ``vh`` and, for standard form, e, Q, G, the constraint
and objective blocks and the Schur plan.  A program's elimination adds
only its own x0 and consistency residual K x0 - b, and its compile only
b (in standard form also c, t0 and Z0; the null-space form also its
free directions and block images).  A cached compile is bit-identical
to an uncached one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..channels import LinearMapRep, apply_to_factors
from ..linalg import (
    embed_identity_array,
    herm_to_vec,
    hermitian_basis,
    ptrace_array,
    require_hermitian,
    symmetric_basis,
    vec_to_herm,
)
from ..tolerances import DECISION_TOL, FARKAS_RESIDUAL_TOL, MARGINAL_TOL, PAIRING_TOL, PSD_TOL, RANK_CUTOFF
from .ipm import _as_real, _ct, start_slack

# the cap on the side of the variable, checked before a program is solved
IPM_SIDE_CAP = 256


class SizeCapError(ValueError):
    """The problem is larger than the dense-size cap."""


def side_text(side: int) -> str:
    """A side for a message, as its bit length where ``str`` refuses it."""
    return str(side) if side.bit_length() < 10000 else f"a {side.bit_length()}-bit number"


@dataclass(frozen=True)
class Constraint:
    """Tr_traced(X) = rhs: the partial trace of X over the factors
    ``traced`` (none keeps X whole) is fixed."""

    traced: tuple[int, ...]
    rhs: np.ndarray


@dataclass(frozen=True)
class Block:
    """A PSD block: the image of X under ``maps`` applied factor-wise, one
    map per factor of X (None leaves a factor alone).  Without maps, or
    with every map None, the block is X itself; ``channels.transpose_map``
    on a factor makes it the partial transpose there."""

    maps: Optional[tuple[Optional[LinearMapRep], ...]] = None


def _kept_side(factors: tuple, traced: tuple) -> int:
    return math.prod(d for i, d in enumerate(factors) if i not in traced)


@dataclass
class SdpProblem:
    """Maximize t over one Hermitian X on the product of ``factors``,
    subject to ``constraints`` and every block minus tI PSD.

    The indices a constraint traces out, the number of a block's maps and
    each map's input dimension are checked when the problem is built,
    and so are each right-hand side's shape and its Hermiticity (by
    ``linalg.require_hermitian``, the rule ``HermitianMatrix`` applies): a
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
            require_hermitian(con.rhs, f"constraint tracing {con.traced} has a rhs that")
        for b, block in enumerate(self.blocks):
            if block.maps is not None and len(block.maps) != nf:
                raise ValueError(f"block {b} has {len(block.maps)} maps for {nf} factors")
            for i, (d, rep) in enumerate(zip(self.factors, block.maps or ())):
                if rep is not None and rep.d_in != d:
                    raise ValueError(f"block {b} has a map from dim {rep.d_in} "
                                     f"on factor {i} of dim {d}")
        sides = [math.prod(d if rep is None else rep.d_out
                           for d, rep in zip(self.factors, block.maps or (None,) * nf))
                 for block in self.blocks]
        for b, side in enumerate(sides):
            if side != sides[0]:
                raise ValueError(f"block {b} has image side {side}, block 0 has {sides[0]}")

    @property
    def side(self) -> int:
        return math.prod(self.factors)

    @property
    def one_block_is_x(self) -> bool:
        """Whether the one PSD block is X itself: it has no maps, or all None."""
        return len(self.blocks) == 1 and all(rep is None for rep in self.blocks[0].maps or ())

    @functools.cached_property
    def real(self) -> bool:
        """The program's field: real when every right-hand side and every
        block's map has imaginary part exactly 0.

        Complex conjugation then maps feasible points to feasible points,
        so Re X of a feasible X is feasible, and the optimum and its
        certificate are real symmetric matrices.  A real program is
        compiled and solved over them, in float64.
        """
        arrays = [con.rhs for con in self.constraints] + [
            rep.choi.array for block in self.blocks for rep in block.maps or () if rep is not None]
        return not any(np.iscomplexobj(arr) and arr.imag.any() for arr in arrays)

    @functools.cached_property
    def elimination(self) -> tuple["_Structure", np.ndarray]:
        """The program's elimination in its own field (``_eliminate``): its
        cached structure and its least-norm point x0.  Computed once and
        read by the compile, the round trip and the point read-out;
        inconsistent right-hand sides raise on every read."""
        return _eliminate(self)


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


def _block_map(problem: SdpProblem, block: Block, arrs: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """A block's image of a matrix or a stack of them or, with ``adjoint``,
    the image's adjoint, from the image's factors to the problem's."""
    return arrs if block.maps is None else apply_to_factors(arrs, problem.factors, block.maps, adjoint)


def block_images(problem: SdpProblem, arrs: np.ndarray) -> np.ndarray:
    """Every block's image of a matrix, or of a stack of matrices, on the
    problem's factors: (blocks, ..., n, n)."""
    return np.stack([_block_map(problem, block, arrs) for block in problem.blocks])


def blocks_adjoint(problem: SdpProblem, zs: np.ndarray) -> np.ndarray:
    """sum_l img_l^*(Z_l) of one matrix Z_l per block."""
    terms = [_block_map(problem, block, z, adjoint=True) for block, z in zip(problem.blocks, zs)]
    return sum(terms[1:], terms[0])


def constraints_adjoint(problem: SdpProblem, ys) -> np.ndarray:
    """sum_c Tr_c^*(Y_c) of one matrix Y_c per constraint, each embedded
    with identities on the factors its constraint traces out."""
    terms = []
    for con, y in zip(problem.constraints, ys):
        kept = [i for i in range(len(problem.factors)) if i not in con.traced]
        terms.append(embed_identity_array(y, [problem.factors[i] for i in kept], problem.factors, kept))
    return sum(terms[1:], terms[0])


@dataclass(frozen=True)
class WitnessReport:
    """A certificate check's verdict and measures; ``margin`` is a Farkas
    pairing (0 for a point), ``note`` a point's first failing condition."""

    valid: bool
    margin: float
    min_eig: float
    constraint_residual: float = 0.0
    note: str = ""


def constraint_deviations(factors: tuple, constraints, x: np.ndarray) -> list[float]:
    """The largest entry of each constraint's partial trace of X minus its rhs."""
    return [float(np.abs(ptrace_array(x, factors, con.traced) - con.rhs).max()) for con in constraints]


def primal_check(problem: SdpProblem, x: np.ndarray, constraint_bound: float,
                 psd_bound: float) -> WitnessReport:
    """Whether X is a point of ``problem`` with t >= 0: every constraint's
    partial trace within ``constraint_bound`` of its rhs in every entry,
    every block's image with least eigenvalue at or above ``-psd_bound``."""
    devs = constraint_deviations(problem.factors, problem.constraints, x)
    lows = np.linalg.eigvalsh(block_images(problem, x)).min(axis=-1)
    fails = [f"constraint tracing {con.traced} is off its rhs by {dev:.3g}, above {constraint_bound:g}"
             for con, dev in zip(problem.constraints, devs) if not dev <= constraint_bound]
    fails += [f"block {b} has least eigenvalue {low:.3g}, below {-psd_bound:g}"
              for b, low in enumerate(lows) if not low >= -psd_bound]
    return WitnessReport(not fails, 0.0, float(lows.min()), max(devs, default=0.0),
                         fails[0] if fails else "")


def farkas_check(problem: SdpProblem, ys, zs: Optional[np.ndarray] = None) -> WitnessReport:
    """Whether multipliers ``ys``, one per constraint, and duals ``zs``, one
    per block, prove that ``problem`` has no point with t >= 0, which would
    give sum_c <Y_c, rhs_c> = sum_l <Z_l, img_l(X)> >= 0: sum_l img_l^*(Z_l)
    = sum_c Tr_c^*(Y_c), every Z_l PSD and sum_c <Y_c, rhs_c> < 0.  Without
    ``zs`` the one block is X itself, with dual sum_c Tr_c^*(Y_c).

    The pairing must stay below ``-PAIRING_TOL`` after the most that the
    certificate's misses can move it: every block adjoint maps I to I and
    Tr X = Tr rhs_0, so a least eigenvalue -e of the Z_l lowers the right
    side by at most blocks * e * Tr rhs_0, and a residual R moves it by
    <R, X>, at most |R|_F Tr rhs_0 for a PSD X (the Jordan program's X
    need not be PSD; there the term is a first-order guard).  Without it
    Y_1 = -0.9e-9 I, Y_2 = 0 would pass on every qubit compat program, the
    compatible ones too: pairing -1.8e-9, least eigenvalue -9e-10."""
    adj = constraints_adjoint(problem, ys)
    if zs is None:
        if not problem.one_block_is_x:
            raise ValueError("a program with blocks other than X needs one dual per block")
        zs, residual = adj[None], 0.0
    else:
        residual = float(np.linalg.norm(blocks_adjoint(problem, zs) - adj))
    min_eig = float(np.linalg.eigvalsh(zs).min())
    margin = sum(float(np.tensordot(y.conj(), con.rhs, axes=2).real)
                 for con, y in zip(problem.constraints, ys))
    slack = float(np.trace(problem.constraints[0].rhs).real) * (len(zs) * max(0.0, -min_eig) + residual)
    valid = (residual <= FARKAS_RESIDUAL_TOL and min_eig >= -PSD_TOL
             and margin + slack <= -PAIRING_TOL)
    note = "" if valid else (f"Farkas certificate fails: pairing {margin:.3g}, "
                             f"least eigenvalue {min_eig:.3g}, residual {residual:.3g}, "
                             f"their effect on the pairing up to {slack:.3g}")
    return WitnessReport(bool(valid), margin, min_eig, residual, note)


def certify(problem: SdpProblem, out: SdpOutcome) -> WitnessReport:
    """The check ``sdp.solve`` runs on each of its Feasible or Infeasible
    outcomes: a Feasible solve's point within ``DECISION_TOL``, or the
    multipliers of an Infeasible solve's dual with that dual, one matrix per
    block; when the one block is X, the multipliers of its one dual alone."""
    if out.status == "Feasible":
        return primal_check(problem, out.primal, DECISION_TOL, DECISION_TOL)
    if problem.one_block_is_x:
        return farkas_check(problem, multipliers(problem, out.dual[0]))
    return farkas_check(problem, multipliers(problem, blocks_adjoint(problem, out.dual)), out.dual)


def multipliers(problem: SdpProblem, m: np.ndarray) -> list[np.ndarray]:
    """One Y_c per constraint, with sum_c Tr_c^*(Y_c) the projection of M onto
    the range of the constraint adjoints (in ``_plan_key``'s field), vh^T vh vec(M)
    = K^T lam for lam = coords^T (vh vec(M)): each constraint's part is Y_c."""
    st = _structure_of(_plan_key(problem, m))
    lam = st.coords.T @ (st.vh @ herm_to_vec(_in_field(m, st.real), st.real))
    sides = [_kept_side(problem.factors, con.traced) for con in problem.constraints]
    ends = np.cumsum([r * (r + 1) // 2 if st.real else r * r for r in sides])
    return [vec_to_herm(part, r, st.real) for part, r in zip(np.split(lam, ends[:-1]), sides)]


def project_point(problem: SdpProblem, x: np.ndarray) -> np.ndarray:
    """The projection of X onto the constraints' affine set (in ``_plan_key``'s
    field), X - mat(vh^T (vh vec(X) - vh x0)).  In the program's own field
    it reads ``SdpProblem.elimination``; X with an imaginary part on a real
    program is projected over the complex field, eliminated afresh."""
    st, x0 = problem.elimination if _plan_key(problem, x)[2] == problem.real else _eliminate(problem, x)
    v = herm_to_vec(_in_field(x, st.real), st.real)
    return vec_to_herm(v - st.vh.T @ (st.vh @ (v - x0)), problem.side, st.real)


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
    constraint adjoints, and ``S0`` and ``Z0`` are where the solver starts
    S and Z, ``S0`` the ``ipm.start_slack`` of ``C_blocks`` and, in
    standard form, ``Z0`` that of the particular solution.  ``schur``
    forms the solver's Schur matrix at each NT scaling point.  The blocks are
    an array axis: ``C_blocks``, ``S0`` and ``Z0`` are (blocks, n, n) and
    ``A_blocks`` is (m, blocks, n, n), real symmetric float64 on a real
    program and complex Hermitian otherwise, with one block in standard form
    and one per PSD block in the null-space form.  In standard form
    ``A_blocks``, ``C_blocks``, ``S0``, ``gmat`` and ``plan`` are the
    structure cache's read-only arrays, shared by every problem of the
    structure.
    """

    problem: SdpProblem
    x0: np.ndarray
    b: np.ndarray
    C_blocks: np.ndarray
    A_blocks: np.ndarray
    S0: np.ndarray
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
    of E_p[a, a'] E_q[b, b'] in M[p, q].  ``gram`` lays those products
    end to end in one buffer, complex or, for a real V, float, and
    gathers M from its float view by ``index``, four entries per (p, q)
    since every basis element has at most two, in one ``einsum`` with
    ``coef``.  Each basis coefficient is real or purely imaginary, so
    ``coef`` reads one real or imaginary part.  Each pair of constraints
    is multiplied once; the mirrored pair reads it transposed.  The pairs
    are multiplied one at a time, so the permuted copies of V held at
    once are two, whatever the number of constraints.
    """

    shape: tuple  # V's shape as a tensor over (row, column) factors
    products: tuple  # (left axes, left shape, right axes, right shape) per pair
    index: np.ndarray  # (4, rows, rows) into the buffer's float view
    coef: np.ndarray  # (4, rows, rows)

    def gram(self, rinv: np.ndarray) -> np.ndarray:
        """M(V) over all constraint rows, V = Rinv^H Rinv."""
        v = (_ct(rinv) @ rinv).reshape(self.shape)
        buf = np.concatenate([(v.transpose(laxes).reshape(lshape)
                               @ v.transpose(raxes).reshape(rshape)).ravel()
                              for laxes, lshape, raxes, rshape in self.products])
        return np.einsum("kpq,kpq->pq", self.coef, buf.view(np.float64)[self.index])


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
            products.append(_pair_axes(factors, ta, tb))
            # entry (a', b, b', a) of the pair's product, for
            # E_p = sum_s c_s |i_s><j_s| and E_q = sum_t c_t |k_t><l_t|
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
            size += r1 * r1 * r2 * r2
    return _SchurPlan(tuple(factors) * 2, tuple(products), index, coef)


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


def _plan_key(problem: SdpProblem, read: Optional[np.ndarray] = None) -> tuple:
    """A problem's structure: the factors of X, what each constraint traces
    out and the field, ``SdpProblem.real`` or complex for a matrix ``read``
    out with an imaginary part, which the real field would drop; everything
    but the right-hand sides and the blocks."""
    real = problem.real and not (np.iscomplexobj(read) and read.imag.any())
    return tuple(problem.factors), tuple(tuple(con.traced) for con in problem.constraints), real


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
    S0: np.ndarray  # the solver's starting S, from C alone
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
        keep = lam > RANK_CUTOFF * (lam[-1] if lam.size else 1.0)
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
        s0 = start_slack(c_block[None])
        _read_only(e_hat, q, gmat, a_block, c_block, s0, plan.index, plan.coef)
        return _StandardForm(e_hat, e_norm, q, gmat, a_block[:, None], c_block[None], s0, plan)


@functools.lru_cache(maxsize=64)
def _structure_of(key: tuple) -> _Structure:
    return _Structure(key)


def _eliminate(problem: SdpProblem, read: Optional[np.ndarray] = None) -> tuple[_Structure, np.ndarray]:
    """Solve the equality constraints: the problem's cached structure (in
    ``_plan_key``'s field) and its minimum-norm particular solution
    x0 = vh^T (coords @ b).  Inconsistent right-hand sides raise.  Read a
    program's own field through ``SdpProblem.elimination``, which computes
    this once."""
    st = _structure_of(_plan_key(problem, read))
    bvec = np.concatenate([herm_to_vec(_in_field(con.rhs, st.real), st.real)
                           for con in problem.constraints])
    x0 = st.vh.T @ (st.coords @ bvec)
    resid = np.abs(st.kmat @ x0 - bvec).max() if bvec.size else 0.0
    scale = max(1.0, np.abs(bvec).max() if bvec.size else 1.0)
    if resid > MARGINAL_TOL * scale:
        raise ValueError(f"equality constraints are inconsistent (residual {resid:.3e})")
    return st, x0


def compile_ipm(problem: SdpProblem) -> CompiledSdp:
    """Dense data for the interior-point solver, in standard form when the
    one PSD block is X itself and in null-space form otherwise: float64
    real symmetric on a real program (``SdpProblem.real``), complex
    Hermitian otherwise."""
    if problem.one_block_is_x:
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
    rest, the objective block and with it S0 too, comes from the
    structure cache.
    """
    st, x0 = problem.elimination
    std = st.standard
    c = st.vh @ x0

    # start W at the particular solution shifted into the cone by the
    # solver's start rule (ipm.start_slack): W0 = x + shift I stays primal
    # feasible, since the rows are orthogonal to the identity direction,
    # and t starts at -shift, -START_MARGIN where x is PSD with entries
    # at most 1
    z0 = start_slack(vec_to_herm(x0, problem.side, st.real)[None])

    return CompiledSdp(
        problem=problem,
        x0=x0,
        b=std.q.T @ c,
        C_blocks=std.C_blocks,
        A_blocks=std.A_blocks,
        S0=std.S0,
        Z0=z0,
        removed_redundant=st.removed,
        dropped_directions=0,
        t0=float(std.e_hat @ c) / std.e_norm,
        gmat=std.gmat,
        plan=std.plan,
    )


def _compile_null_space(problem: SdpProblem) -> CompiledSdp:
    """y = (free coordinates, t), the PSD blocks affine in them."""
    st, x0 = problem.elimination
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
    rank2 = int(np.sum(s2 > RANK_CUTOFF * scale))
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
        S0=start_slack(img_consts),
        Z0=z0,
        removed_redundant=st.removed,
        dropped_directions=m0 - rank2,
        nullbasis=nullb,
    )
