"""Solver-independent construction and verification of certificates.

A witness against compatibility of a pair of channels is a pair of
Hermitian operators whose partial-trace adjoints sum to a PSD operator
while pairing negatively with the channels' Choi matrices (in ppt mode,
with their partial transposes); a compatibilizer certifies the converse.
A witness is read out of a solve's dual as the multipliers of the program
it certifies (``sdp.problem.multipliers``) and checked against that
program without a solver: a Farkas certificate by ``farkas_check``, a
point by ``primal_check``.  Witness thresholds are tighter than solver
tolerances on purpose: a witness should be decisively valid, not borderline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .channels import Channel, _choi_identity, _dims_from_json, _matrix_from_json, _matrix_to_json
from .linalg import HermitianMatrix, TensorShape, ptranspose_array
from .sdp.builders import build_compat, build_jordan_compat, two_marginal_problem
from .sdp.problem import SdpProblem, WitnessReport, blocks_adjoint, farkas_check, multipliers, primal_check
from .tolerances import DECISION_TOL


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


def witness_from_dual(s: np.ndarray, problem: SdpProblem, mode: str) -> Witness:
    """The (Z1, Z2) multipliers of the two-marginal program ``problem`` read
    out of its dual S.  S is the solver's interior slack, so their adjoint
    sum, S projected onto the constraint adjoints, is PSD up to roundoff,
    which ``verify_witness`` accepts."""
    (z1, z2), factors = multipliers(problem, s), problem.factors
    return Witness(HermitianMatrix(z1, TensorShape(factors[:2])),
                   HermitianMatrix(z2, TensorShape(factors[::2])), mode=mode)


def jordan_witness_from_dual(rho: np.ndarray, jordan: SdpProblem) -> JordanWitness:
    """The (W1, W2, rho) witness from the dual rho of the compat or Jordan
    program: the multipliers of the Jordan program ``jordan`` read out of
    the pull-back (id (x) f* (x) g*)(rho), the adjoint of its block."""
    w1, w2 = multipliers(jordan, blocks_adjoint(jordan, rho[None]))
    d, f_rep, g_rep = jordan.factors[0], *jordan.blocks[0].maps[1:]
    return JordanWitness(HermitianMatrix(w1, TensorShape((d, d))),
                         HermitianMatrix(w2, TensorShape((d, d))),
                         HermitianMatrix(rho, TensorShape((d, f_rep.d_out, g_rep.d_out))))


def verify_witness(w: Witness, f: Channel, g: Channel) -> WitnessReport:
    """Check (Z1, Z2) as a Farkas certificate of the two-marginal program on
    the Choi matrices (in ppt mode, on their partial transposes on X): a
    PSD adjoint sum (``min_eig``) and a negative pairing (``margin``)."""
    dx, d1, d2 = f.d_in, f.d_out, g.d_out
    if g.d_in != dx:
        raise ValueError("channels must share the input space")
    if w.z1.shape.factors != (dx, d1) or w.z2.shape.factors != (dx, d2):
        raise ValueError(
            f"witness shapes {w.z1.shape.factors}, {w.z2.shape.factors} do not match "
            f"the channel spaces ({dx},{d1}), ({dx},{d2})"
        )
    j1, j2 = f.choi.array, g.choi.array
    if w.mode == "ppt":
        j1 = ptranspose_array(j1, (dx, d1), 0)
        j2 = ptranspose_array(j2, (dx, d2), 0)
    return farkas_check(two_marginal_problem(j1, j2, (dx, d1, d2)), (w.z1.array, w.z2.array))


def verify_compatibilizer(x: np.ndarray, f: Channel, g: Channel, ppt: bool = False) -> WitnessReport:
    """Check X on X (x) Y1 (x) Y2 as a point of the compat program (with
    ``ppt``, of the PPT one): marginals J(f), J(g) (``constraint_residual``)
    and PSD blocks within the solver's feasibility band ``DECISION_TOL``."""
    problem = build_compat(f, g, ppt)
    if x.shape != (problem.side, problem.side):
        raise ValueError(f"compatibilizer of shape {x.shape} does not match the channel spaces "
                         f"({f.d_in},{f.d_out}), ({g.d_in},{g.d_out})")
    return primal_check(problem, x, DECISION_TOL, DECISION_TOL)


def verify_jordan_witness(w: JordanWitness, f: Channel, g: Channel) -> WitnessReport:
    """Check (W1, W2, rho) as a Farkas certificate of the Jordan program:
    rho PSD, its pull-back equal to Tr*(W1) + Tr*(W2) (``constraint_residual``)
    and the pairing of W1 + W2 with the identity map's Choi matrix negative."""
    d = f.d_in
    if g.d_in != d:
        raise ValueError("channels must share the input space")
    if w.w1.shape.factors != (d, d) or w.w2.shape.factors != (d, d):
        raise ValueError("multiplier shapes must be (d, d) factors")
    if w.rho.shape.factors != (d, f.d_out, g.d_out):
        raise ValueError("rho must live on X (x) Y1 (x) Y2")
    return farkas_check(build_jordan_compat(f, g), (w.w1.array, w.w2.array), w.rho.array[None])


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


def _on(arr: np.ndarray, factors: tuple[int, ...]) -> HermitianMatrix:
    return HermitianMatrix(arr, TensorShape(factors))


def certificate_from_json(data: dict) -> Union[Witness, JordanWitness, HermitianMatrix]:
    mode = data["mode"]
    if mode in ("compat", "ppt-compat"):
        comp = data["compatibilizer"]
        return _on(_matrix_from_json(comp["choi"]),
                   (_dims_from_json(comp, "d_in"), *_dims_from_json(comp, "output_factors")))
    if mode in ("plain", "ppt"):
        z1, z2 = _matrix_from_json(data["Z1"]), _matrix_from_json(data["Z2"])
        return Witness(_on(z1, _dims_from_json(data, "shape1")), _on(z2, _dims_from_json(data, "shape2")),
                       mode=mode)
    if mode == "jordan-operator":
        a = _matrix_from_json(data["A"])
        d = int(round(a.shape[0] ** (1 / 3)))
        return _on(a, (d, d, d))
    if mode == "jordan":
        w1, w2, rho = (_matrix_from_json(data[key]) for key in ("W1", "W2", "rho"))
        d = int(round(np.sqrt(w1.shape[0])))
        return JordanWitness(_on(w1, (d, d)), _on(w2, (d, d)), _on(rho, _dims_from_json(data, "rho_shape")))
    raise ValueError(f"unknown certificate mode {mode!r}")
