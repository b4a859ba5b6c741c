"""Solver-independent construction and verification of certificates.

A witness against compatibility of a pair of channels is a pair of
Hermitian operators whose partial-trace adjoints sum to a PSD operator
while pairing negatively with the channels' Choi matrices (in ppt mode,
with their partial transposes); a compatibilizer certifies the converse.
Each kind has one read-out from a solver's point and one check here (the
Jordan operator's are in ``qcc.jordan``).  Verification uses only dense
linear algebra, never a solver, so certificates are auditable artifacts.
Witness thresholds are tighter than solver tolerances on purpose: a
witness should be decisively valid, not borderline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .channels import Channel, _choi_identity, _matrix_from_json, _matrix_to_json, apply_to_factor
from .linalg import HermitianMatrix, TensorShape, embed_identity_array, ptrace_array, ptranspose_array

# The sign band of the optimum t and decide()'s certificate tolerance, in
# one: a Feasible t >= -band gives X = W + tI with lambda_min(X) >= -band,
# which the certificate check must accept.  It bounds no residual: a solve
# that misses ipm.TOL is Inconclusive.
DECISION_TOL = 1e-7
PSD_TOL = 1e-9
PAIRING_TOL = 1e-9
JORDAN_CONSTRAINT_TOL = 1e-8


@dataclass(frozen=True)
class Witness:
    """Dual certificate (Z1, Z2) on X (x) Y1 and X (x) Y2."""

    z1: HermitianMatrix
    z2: HermitianMatrix
    mode: str = "plain"

    def __post_init__(self):
        if self.mode not in ("plain", "ppt"):
            raise ValueError(f"unknown witness mode {self.mode!r}")
        if len(self.z1.shape.factors) != 2 or len(self.z2.shape.factors) != 2:
            raise ValueError("witness parts must carry two-factor shapes")


@dataclass(frozen=True)
class JordanWitness:
    """Certificate (W1, W2, rho) against Jordan compatibility."""

    w1: HermitianMatrix
    w2: HermitianMatrix
    rho: HermitianMatrix


@dataclass(frozen=True)
class WitnessReport:
    valid: bool
    margin: float
    min_eig: float
    constraint_residual: float = 0.0


def _hs(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.tensordot(a.conj(), b, axes=2).real)


def adjoint_sum(z1: np.ndarray, z2: np.ndarray, factors: tuple[int, int, int]) -> np.ndarray:
    """Tr*_{Y2}(Z1) + Tr*_{Y1}(Z2) on X (x) Y1 (x) Y2.

    The embeddings insert identities at the traced positions, preserving
    the ordering of the spaces.
    """
    dx, d1, d2 = factors
    big1 = embed_identity_array(z1, (dx, d1), factors, (0, 1))
    big2 = embed_identity_array(z2, (dx, d2), factors, (0, 2))
    return big1 + big2


def split_adjoint_pair(z: np.ndarray, factors: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
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


def witness_from_dual(s: np.ndarray, f: Channel, g: Channel, mode: str) -> Witness:
    """The (Z1, Z2) split of a compat-type program's dual slack S.  S is the
    solver's interior slack, so the adjoint sum of its split is PSD up to
    roundoff, which ``verify_witness`` accepts."""
    factors = (f.d_in, f.d_out, g.d_out)
    z1, z2 = split_adjoint_pair(s, factors)
    return Witness(HermitianMatrix(z1, TensorShape(factors[:2])),
                   HermitianMatrix(z2, TensorShape(factors[::2])), mode=mode)


def _pull_back(rho: np.ndarray, f: Channel, g: Channel) -> np.ndarray:
    """(id (x) f* (x) g*)(rho), from X (x) Y1 (x) Y2 back to X (x) X (x) X."""
    lhs, cur = apply_to_factor(rho, (f.d_in, f.d_out, g.d_out), 1, f.rep, adjoint=True)
    return apply_to_factor(lhs, cur, 2, g.rep, adjoint=True)[0]


def jordan_witness_from_dual(rho: np.ndarray, f: Channel, g: Channel) -> JordanWitness:
    """The (W1, W2, rho) witness from the dual rho of the compat or Jordan
    program: (W1, W2) splits the pull-back of rho."""
    d = f.d_in
    w1, w2 = split_adjoint_pair(_pull_back(rho, f, g), (d, d, d))
    return JordanWitness(HermitianMatrix(w1, TensorShape((d, d))),
                         HermitianMatrix(w2, TensorShape((d, d))),
                         HermitianMatrix(rho, TensorShape((d, f.d_out, g.d_out))))


def verify_witness(w: Witness, f: Channel, g: Channel) -> WitnessReport:
    """Check the two sides of the alternative: PSD adjoint sum, negative pairing.

    The pairing (reported as ``margin``) is against the Choi matrices in
    plain mode and against their partial transposes on X in ppt mode.
    """
    dx, d1, d2 = f.d_in, f.d_out, g.d_out
    if g.d_in != dx:
        raise ValueError("channels must share the input space")
    if w.z1.shape.factors != (dx, d1) or w.z2.shape.factors != (dx, d2):
        raise ValueError(
            f"witness shapes {w.z1.shape.factors}, {w.z2.shape.factors} do not match "
            f"the channel spaces ({dx},{d1}), ({dx},{d2})"
        )
    big = adjoint_sum(w.z1.array, w.z2.array, (dx, d1, d2))
    min_eig = float(np.linalg.eigvalsh(big).min())
    j1, j2 = f.choi.array, g.choi.array
    if w.mode == "ppt":
        j1 = ptranspose_array(j1, (dx, d1), 0)
        j2 = ptranspose_array(j2, (dx, d2), 0)
    margin = _hs(w.z1.array, j1) + _hs(w.z2.array, j2)
    valid = bool(min_eig >= -PSD_TOL and margin <= -PAIRING_TOL)
    return WitnessReport(valid, margin, min_eig)


def verify_compatibilizer(x: np.ndarray, f: Channel, g: Channel, ppt: bool = False) -> WitnessReport:
    """Check that X on X (x) Y1 (x) Y2 has the Choi marginals J(f), J(g) and is
    PSD (with ``ppt``, also under the partial transpose on X), within the solver's
    feasibility band ``DECISION_TOL``; ``constraint_residual`` is the deviation."""
    factors = (f.d_in, f.d_out, g.d_out)
    dev = float(max(np.abs(ptrace_array(x, factors, [2]) - f.choi.array).max(),
                    np.abs(ptrace_array(x, factors, [1]) - g.choi.array).max()))
    min_eig = float(np.linalg.eigvalsh(x).min())
    if ppt:
        min_eig = min(min_eig, float(np.linalg.eigvalsh(ptranspose_array(x, factors, 0)).min()))
    valid = bool(dev <= DECISION_TOL and min_eig >= -DECISION_TOL)
    return WitnessReport(valid, 0.0, min_eig, dev)


def verify_jordan_witness(w: JordanWitness, f: Channel, g: Channel) -> WitnessReport:
    """Check a certificate against Jordan compatibility.

    Conditions: rho PSD, the adjoint maps applied to rho match the
    embedded multipliers, and the pairing of W1 + W2 with the identity
    map's Choi matrix is negative.
    """
    d = f.d_in
    if g.d_in != d:
        raise ValueError("channels must share the input space")
    if w.w1.shape.factors != (d, d) or w.w2.shape.factors != (d, d):
        raise ValueError("multiplier shapes must be (d, d) factors")
    if w.rho.shape.factors != (d, f.d_out, g.d_out):
        raise ValueError("rho must live on X (x) Y1 (x) Y2")
    lhs = _pull_back(w.rho.array, f, g)
    rhs = adjoint_sum(w.w1.array, w.w2.array, (d, d, d))
    constraint_residual = float(np.linalg.norm(lhs - rhs))
    rho_min = float(np.linalg.eigvalsh(w.rho.array).min())
    margin = _hs(w.w1.array + w.w2.array, _choi_identity(d))
    valid = bool(
        constraint_residual <= JORDAN_CONSTRAINT_TOL
        and rho_min >= -PSD_TOL
        and margin <= -PAIRING_TOL
    )
    return WitnessReport(valid, margin, rho_min, constraint_residual)


def no_broadcast_witness(d: int) -> Witness:
    """The closed-form witness against self-compatibility of near-identity channels.

    Z1 = Z2 = I - 2/(d+1) * J(id); pairs negatively with partially
    depolarizing channels up to noise d / (2(d+1)), with the pairing
    crossing zero exactly at that threshold.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    z = np.eye(d * d) - (2.0 / (d + 1)) * _choi_identity(d)
    shape = TensorShape((d, d))
    return Witness(HermitianMatrix(z, shape), HermitianMatrix(z, shape), mode="plain")


# ---------------------------------------------------------------------------
# certificate JSON (shared matrix encoding with the channel format)
# ---------------------------------------------------------------------------


def certificate_to_json(w) -> dict:
    """JSON form of a Witness, a JordanWitness, a compatibilizer (a
    HermitianMatrix, whose mode the caller sets) or a jordan.GenJordanOperator."""
    if isinstance(w, HermitianMatrix):  # a compatibilizer, in channel JSON; the caller sets its mode
        d_in, *outs = w.shape.factors
        data = {"compatibilizer": {"d_in": d_in, "d_out": math.prod(outs),
                                   "output_factors": outs, "choi": _matrix_to_json(w.array)}}
    elif isinstance(w, Witness):
        data = {
            "mode": w.mode,
            "Z1": _matrix_to_json(w.z1.array),
            "Z2": _matrix_to_json(w.z2.array),
            "shape1": list(w.z1.shape.factors),
            "shape2": list(w.z2.shape.factors),
        }
    elif isinstance(w, JordanWitness):
        data = {
            "mode": "jordan",
            "W1": _matrix_to_json(w.w1.array),
            "W2": _matrix_to_json(w.w2.array),
            "rho": _matrix_to_json(w.rho.array),
            "rho_shape": list(w.rho.shape.factors),
        }
    else:  # a GenJordanOperator (qcc.jordan imports this module, not the reverse)
        data = {"mode": "jordan-operator", "A": _matrix_to_json(w.matrix.array)}
    return data


def certificate_from_json(data: dict) -> Union[Witness, JordanWitness, HermitianMatrix]:
    mode = data["mode"]
    if mode in ("compat", "ppt-compat"):
        comp = data["compatibilizer"]
        factors = (int(comp["d_in"]),) + tuple(int(d) for d in comp["output_factors"])
        return HermitianMatrix(_matrix_from_json(comp["choi"]), TensorShape(factors))
    if mode in ("plain", "ppt"):
        z1 = _matrix_from_json(data["Z1"])
        z2 = _matrix_from_json(data["Z2"])
        s1 = tuple(int(d) for d in data["shape1"])
        s2 = tuple(int(d) for d in data["shape2"])
        return Witness(
            HermitianMatrix(z1, TensorShape(s1)),
            HermitianMatrix(z2, TensorShape(s2)),
            mode=mode,
        )
    if mode == "jordan-operator":
        a = _matrix_from_json(data["A"])
        d = int(round(a.shape[0] ** (1 / 3)))
        return HermitianMatrix(a, TensorShape((d, d, d)))
    if mode == "jordan":
        w1 = _matrix_from_json(data["W1"])
        w2 = _matrix_from_json(data["W2"])
        rho = _matrix_from_json(data["rho"])
        d = int(round(np.sqrt(w1.shape[0])))
        rho_shape = tuple(int(d) for d in data["rho_shape"])
        return JordanWitness(
            HermitianMatrix(w1, TensorShape((d, d))),
            HermitianMatrix(w2, TensorShape((d, d))),
            HermitianMatrix(rho, TensorShape(rho_shape)),
        )
    raise ValueError(f"unknown certificate mode {mode!r}")
