"""Closed-form and one-step candidates for pure feasibility questions:
the product point and one alternating-projection round trip.

The product point (``product_point``) averages, over the orderings of the
constraints, the product of their right-hand sides, each embedded with
identities on the factors it traces out.  Of two trace-preserving Choi
matrices it is their standard Jordan product, which the paper shows is a
compatibilizer wherever it is completely positive; of k copies of J(f) it
meets every marginal of a k-extension.  ``sdp.solve`` without
``optimum`` tries it first and keeps it where ``problem.certify`` passes
it.

The round trip is the first sweep of Dykstra's method (Boyle-Dykstra
1986), whose correction term is still zero: from the affine set's
least-norm point x0 it clips to the PSD cone, y = P_PSD(x0) (Higham
1988), and projects back, x = P_A(y).  The iterate is kept as a matrix
in the program's field: real symmetric float64 when the program's data
is real (``SdpProblem.real``), complex Hermitian otherwise.  The one
block must be the variable itself: ``sdp.solve`` without ``optimum``
sends the k-extension, compat and two-marginal programs here, not the
full PPT or the Jordan program.  Both steps read the program's one
elimination (``SdpProblem.elimination``), which the interior-point
compile reads too: x0 is its least-norm point, and the affine step is
``problem.project_point`` of y, two matvecs with its orthonormal
constraint rows (from an eigendecomposition of the constraint Gram
matrix K K^T, cached per problem structure).  One ``eigh`` makes most
of its cost.

x is a point when its least eigenvalue is at least ``-PSD_TOL``.
Otherwise W = y - x is the clip's displacement from the affine set: it
lies in the range of the constraint adjoints, since x is y's projection,
and so does W + sI (I = Tr_c^*(I) for a partial-trace constraint).  So W
shifted to PSD and scaled to trace 1 is a dual whose pairing bounds the
optimum t from above; it refutes when it pairs with x at or below
``-DECISION_TOL`` (on an infeasible program the iterates of later
sweeps would approach the nearest pair of the two sets, where W pairs
with every affine point at -|W|^2; Bauschke-Borwein 1994).
``sdp.solve`` checks it, as every certificate, by ``problem.certify``,
and runs the interior point, stopped at its first certified iterate,
where the round trip settles neither.

On the 21 grid-6 xi points at k = 2, 3, 4 and 5 the product point
settles 13, 12, 10 and 8 (every point the round trip reaches and more),
the round trip refutes 3, 8, 8 and 8, and the early-stopped interior
point settles the other 5, 1, 3 and 5, in 14, 4, 11 and 24 iterations.
Those solves take 0.43, 0.40, 1.08 and 5.28 ms per point, against 0.70,
1.04, 2.16 and 8.61 ms without the product point (best of 5 rounds, 1
BLAS thread, 2-vCPU VM).  Seven more Dykstra sweeps settled 4 more of
the 63 points at k = 2..4 for 7 times the eigendecompositions, and the
early-stopped interior point settles those too.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..linalg import embed_identity_array, vec_to_herm
from ..tolerances import DECISION_TOL, PSD_TOL
from .problem import SdpProblem, _in_field, project_point


@dataclass
class ProjectionResult:
    feasible: bool
    x: np.ndarray  # the iterate X, side x side, in the program's field
    violation: float
    iterations: int  # round trips, always 1
    certificate: Optional[np.ndarray] = None  # a trace-1 Farkas dual W, when refuted


def solve_dykstra(problem: SdpProblem) -> ProjectionResult:
    """Run one round trip x0 -> PSD clip y -> affine projection x and report
    x, feasible when its PSD violation is at most ``PSD_TOL``, or else with
    the Farkas dual read from y - x, when one refutes."""
    if not problem.one_block_is_x:
        raise ValueError("the round trip supports one PSD block, the variable itself")

    side = problem.side
    st, x0 = problem.elimination

    def violation_of(x):
        return max(0.0, -float(np.linalg.eigvalsh(x).min()))

    w, v = np.linalg.eigh(vec_to_herm(x0, side, st.real))
    y = (v * np.maximum(w, 0.0)) @ v.conj().T
    x = project_point(problem, y)
    viol = violation_of(x)
    if viol <= PSD_TOL:
        return ProjectionResult(True, x, viol, 1)
    # y - x shifted to PSD and scaled to trace 1 refutes if it pairs with x,
    # a point of the affine set, at or below -DECISION_TOL
    w = y - x
    w = w + violation_of(w) * np.eye(side)
    trace = float(np.trace(w).real)
    refuted = trace > 0 and float(np.vdot(w, x).real) <= -DECISION_TOL * trace
    return ProjectionResult(False, x, viol, 1, w / trace if refuted else None)


# the most constraints whose orderings product_point averages; the largest
# k-extension within the size cap has 7 (8 factors of dimension 2)
PRODUCT_MAX_CONSTRAINTS = 8


def product_point(problem: SdpProblem) -> Optional[np.ndarray]:
    """The product point of a program, in its field, or None where it is
    not PSD: the Hermitian part of the average, over the orderings of the
    constraints, of the product of their right-hand sides E_c, each
    embedded with identities on the factors it traces out.

    For trace-preserving Choi matrices it meets every constraint: tracing
    out a factor that one E_c alone acts on replaces E_c by Tr_Y J = I.
    Of two, J_f and J_g, it is the Choi matrix of their standard Jordan
    product (``jordan.jordan_channel``), a compatibilizer where it is PSD,
    which is the paper's Jordan-product criterion; of k copies of J(f) it
    is a k-extension where it is PSD.

    The sum P(T) over the orderings of a subset T of the constraints is
    built as P(T) = sum_{c in T} E_c P(T minus c) from P({c}) = E_c, in
    k (2^(k-1) - 1) products, of which a pair {a, b} needs one:
    E_b E_a is the adjoint of E_a E_b.  P(T) is the identity off the
    factors T's constraints keep, so it is held on those alone, and each
    product is one matrix product (``_times``).  For k copies of a
    d_x d_y Choi matrix the sums hold d_x^2 (1 + d_y^2)^k entries, 4.8
    times the point's at qubit k = 7.  The average over T is the partial
    trace of the point over the factors T does not keep, which is PSD
    where the point is.  So the subsets are taken in colex order, each
    constraint c after every subset of the constraints before it, and
    the average over the first c is pretested (``_pretest``) with the
    DECISION_TOL shift of the point scaled by the traced dimension, the
    first c = k being the point's own: a failing one ends the attempt.
    Programs of more than ``PRODUCT_MAX_CONSTRAINTS`` constraints have no
    product point here.
    """
    count = len(problem.constraints)
    if not 0 < count <= PRODUCT_MAX_CONSTRAINTS:
        return None
    factors = problem.factors
    kept, rhs, sums = [], [], {}  # sums: subset -> (the factors it keeps, P on them)
    for last, con in enumerate(problem.constraints):
        # factors of dimension 1 carry no index
        kept.append(tuple(i for i, d in enumerate(factors) if i not in con.traced and d > 1))
        rhs.append(_in_field(con.rhs, problem.real).reshape([factors[i] for i in kept[last]] * 2))
        sums[last,] = kept[last], rhs[last]
        for size in range(1, last + 1):
            for below in itertools.combinations(range(last), size):
                subset = below + (last,)
                support = tuple(sorted(set(sums[below][0]).union(kept[last])))
                if size == 1:  # E_a E_b + E_b E_a, the first term's adjoint
                    term = _times(rhs[below[0]], kept[below[0]], *sums[last,], support)
                    n = len(support)
                    total = term + term.transpose(*range(n, 2 * n), *range(n)).conj()
                else:
                    total = sum(_times(rhs[c], kept[c], *sums[tuple(i for i in subset if i != c)], support)
                                for c in subset)
                sums[subset] = support, total
        support, total = sums[tuple(range(last + 1))]
        shift = math.factorial(last + 1) * problem.side / math.prod(factors[i] for i in support)
        if (last or count == 1) and not _pretest(total, shift):
            return None
    side = math.prod(factors[i] for i in support)
    x = total.reshape(side, side) / math.factorial(count)
    if side != problem.side:
        x = embed_identity_array(x, [factors[i] for i in support], factors, support)
    return (x + x.conj().T) / 2


def _times(e: np.ndarray, kept: tuple, below: tuple, p: np.ndarray, support: tuple) -> np.ndarray:
    """(E (x) I)(P (x) I) on the factors ``support``, the union of E's
    factors ``kept`` and P's factors ``below``, each matrix a tensor over
    its row factors and then its column factors.  One matrix product sums
    over the factors E and P share, with E's own factors' columns and P's
    own factors' rows as further rows and columns, and a transpose puts
    each factor in its place (``_times_axes``)."""
    left_axes, right_axes, rows, shared, out_axes = _times_axes(kept, below, support)
    left, right = e.transpose(left_axes), p.transpose(right_axes)
    inner = math.prod(left.shape[rows:])
    prod = left.reshape(-1, inner) @ right.reshape(inner, -1)
    return prod.reshape(left.shape[:rows] + right.shape[shared:]).transpose(out_axes)


@functools.lru_cache(maxsize=256)
def _times_axes(kept: tuple, below: tuple, support: tuple) -> tuple:
    """The axes of ``_times``: E's transpose to its rows, its own factors'
    columns and the shared columns; P's to the shared rows, its own rows
    and its columns; how many of E's axes and P's shared axes lead; and
    the product's transpose to ``support``'s rows and columns."""
    new = [i for i in kept if i not in below]
    shared = [i for i in kept if i in below]
    own = [i for i in below if i not in kept]
    nk, nb = len(kept), len(below)
    left = (*range(nk), *(nk + kept.index(i) for i in new + shared))
    right = (*(below.index(i) for i in shared + own), *range(nb, 2 * nb))
    axes = [(0, i) for i in kept] + [(1, i) for i in new] + [(0, i) for i in own] + [(1, i) for i in below]
    out = tuple(axes.index((0, i)) for i in support) + tuple(axes.index((1, i)) for i in support)
    return left, right, nk + len(new), len(shared), out


def _pretest(p: np.ndarray, shift: float) -> bool:
    """Whether P + shift DECISION_TOL I has a Cholesky factor, P a tensor
    over its row factors and then its column factors: cheaper than the
    least eigenvalue, and it fails where that is below -shift DECISION_TOL."""
    side = math.isqrt(p.size)
    try:
        np.linalg.cholesky(p.reshape(side, side) + shift * DECISION_TOL * np.eye(side))
    except np.linalg.LinAlgError:
        return False
    return True
