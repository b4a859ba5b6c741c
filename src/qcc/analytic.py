"""Closed-form compatibility criteria for qubit, and some qudit, channel families.

These are the ground-truth oracles the SDP engine is checked against:
the symmetric-extendibility criterion for qubit channel self-
compatibility, the dephasing-depolarizing family's self-compatibility
and measure-and-prepare thresholds, the k-self-compatibility threshold
of the partially depolarizing channel, and the depolarizing-pair region.
All inequalities are evaluated boundary-inclusive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    Channel,
    LinearMapRep,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    in_xi_domain,
)
from .linalg import HermitianMatrix, ptrace_array
from .tolerances import DET_CLAMP, DOMAIN_SLACK


@dataclass(frozen=True)
class XiParams:
    """Parameters of the partially dephasing-depolarizing family."""

    p: float
    q: float

    def __post_init__(self):
        if not in_xi_domain(self.p, self.q):
            raise ValueError(f"need p, q in [0, 1] with p + q <= 1, got p={self.p}, q={self.q}")


def qubit_self_compatible(j: HermitianMatrix) -> bool:
    """Self-compatibility of a qubit channel from its Choi matrix.

    Criterion: Tr((Tr_X J)^2) >= Tr(J^2) - 4 sqrt(det J), the symmetric-
    extendibility condition for two-qubit states.  J must pass the
    channel validation (``Channel``); tiny negative determinants are
    clamped to zero.
    """
    if j.shape.factors != (2, 2):
        raise ValueError("expected a qubit-channel Choi matrix with factors (2, 2)")
    Channel(LinearMapRep(j, 2, 2, (2,)))
    arr = j.array
    out_marg = ptrace_array(arr, (2, 2), [0])
    lhs = float(np.trace(out_marg @ out_marg).real)
    det = float(np.linalg.det(arr).real)
    if det < DET_CLAMP:
        raise ValueError(f"determinant {det:.3e} below the clamping window")
    det = max(det, 0.0)
    rhs = float(np.trace(arr @ arr).real) - 4.0 * np.sqrt(det)
    return bool(lhs >= rhs)


def xi_self_compatible(xp: XiParams) -> bool:
    """Self-compatibility region of the dephasing-depolarizing family."""
    return bool(xp.q >= xi_self_threshold(xp.p))


def xi_self_threshold(p: float) -> float:
    return (2.0 - p - np.sqrt(1.0 + 2.0 * p * (1.0 - p))) / 3.0


def xi_k_threshold(d: int, k: int) -> float:
    """Least q at which the partially depolarizing channel (1-q) id + q
    depolarizing on C^d (``xi_channel(0, q, d)``) is k-self-compatible:
    d(k-1) / (k(d+1)).  Werner's optimal 1 -> k cloner (1998) shrinks each
    copy's Bloch part by (k+d) / (k(d+1)), the most any k-extension can
    keep, and 1 - q at most that is this bound; at k = 2, d = 2 it is
    ``xi_self_threshold(0)`` = 1/3."""
    return d * (k - 1) / (k * (d + 1))


def xi_measure_prepare(xp: XiParams) -> bool:
    """Measure-and-prepare (hence always-self-compatible) region."""
    return bool(xp.q >= xi_mp_threshold(xp.p))


def xi_mp_threshold(p: float) -> float:
    return 2.0 * (1.0 - p) / 3.0


def depol_pair_compatible(q0: float, q1: float) -> bool:
    """Compatibility of two partially depolarizing channels."""
    if not (0.0 <= q0 <= 1.0 and 0.0 <= q1 <= 1.0):
        raise ValueError("noise parameters must lie in [0, 1]")
    return bool(q0 + np.sqrt(q0 * q1) + q1 >= 1.0)


def xi_inverse(xp: XiParams, d: int = 2) -> LinearMapRep:
    """Inverse of the dephasing-depolarizing map as a linear map.

    Defined away from the singular boundary p + q = 1 (and q = 1); the
    inverse is trace preserving but not completely positive in general.
    """
    p, q = xp.p, xp.q
    if p + q >= 1.0 - DOMAIN_SLACK or q >= 1.0 - DOMAIN_SLACK:
        raise ValueError("parameters on the singular boundary; no inverse exists")
    a = 1.0 - p - q
    c_id = 1.0 / a
    c_deph = -p / ((1.0 - q) * a)
    c_depol = -q / (1.0 - q)
    j = (
        c_id * identity_channel(d).choi.array
        + c_deph * dephasing_channel(d).choi.array
        + c_depol * depolarizing_channel(d).choi.array
    )
    return LinearMapRep.from_choi(j, d)
