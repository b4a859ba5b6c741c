"""Constructive reductions between state marginal problems and channel compatibility.

Two overlapping states with a common reduction sigma correspond to a
channel pair built by conjugating with the pseudo-inverse square root of
sigma (plus a completion term on the complement of its support), and
joint states map back and forth to compatibilizers the same way.  The
POVM-level operations lift a joint measurement to a compatibilizer of
measure-and-prepare channels and extract one back from distinguishable
preparations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel, LinearMapRep, Povm, apply_adjoint_array, check_projectors, require_density
from .linalg import (
    HermitianMatrix,
    TensorShape,
    pinv_sqrt,
    ptrace_array,
    support_projector_array,
)
from .tolerances import MARGINAL_TOL


@dataclass(frozen=True)
class StatePair:
    """Two density matrices overlapping on the first factor, with their
    common reduction sigma passed explicitly (never recomputed, so a
    mismatch cannot hide behind pseudo-inverse artifacts)."""

    rho1: HermitianMatrix
    rho2: HermitianMatrix
    sigma: HermitianMatrix

    def __post_init__(self):
        f1, f2 = self.rho1.shape.factors, self.rho2.shape.factors
        if len(f1) != 2 or len(f2) != 2 or f1[0] != f2[0]:
            raise ValueError("states must live on X (x) Y1 and X (x) Y2")
        if self.sigma.side != f1[0]:
            raise ValueError("sigma must live on the overlap factor")
        for name, mat in (("rho1", self.rho1), ("rho2", self.rho2), ("sigma", self.sigma)):
            require_density(mat.array, name, MARGINAL_TOL)
        m1 = ptrace_array(self.rho1.array, f1, [1])
        m2 = ptrace_array(self.rho2.array, f2, [1])
        dev = max(np.abs(m1 - self.sigma.array).max(), np.abs(m2 - self.sigma.array).max())
        if dev > MARGINAL_TOL:
            raise ValueError(f"state marginals disagree with sigma (deviation {dev:.3e})")

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.rho1.shape.factors[0], self.rho1.shape.factors[1],
                self.rho2.shape.factors[1])


def _sigma_parts(sigma: HermitianMatrix):
    inv_sqrt = pinv_sqrt(sigma).array
    proj = support_projector_array(sigma.array)
    comp = np.eye(sigma.side) - proj
    return inv_sqrt, proj, comp


def states_to_channels(sp: StatePair) -> tuple[Channel, Channel]:
    """The channel pair whose compatibility is equivalent to the states'."""
    dx, d1, d2 = sp.dims
    inv_sqrt, _proj, comp = _sigma_parts(sp.sigma)
    out = []
    for rho, dy in ((sp.rho1, d1), (sp.rho2, d2)):
        conj = np.kron(inv_sqrt, np.eye(dy))
        j = conj @ rho.array @ conj + np.kron(comp, np.eye(dy)) / dy
        out.append(Channel.from_choi(j, dx))
    return out[0], out[1]


def joint_state_from_compatibilizer(comp: Channel, sigma: HermitianMatrix) -> HermitianMatrix:
    """Joint state recovered from a compatibilizer of the constructed channels."""
    if len(comp.rep.output_factors) != 2:
        raise ValueError("compatibilizer must declare a two-factor output")
    d1, d2 = comp.rep.output_factors
    w, v = np.linalg.eigh(sigma.array)
    sqrt_sigma = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
    conj = np.kron(sqrt_sigma, np.eye(d1 * d2))
    rho = conj @ comp.choi.array @ conj
    return HermitianMatrix(rho, TensorShape((sigma.side, d1, d2)))


def compatibilizer_from_joint_state(rho: HermitianMatrix, sigma: HermitianMatrix) -> Channel:
    """Compatibilizing channel built from a joint state of the pair."""
    factors = rho.shape.factors
    if len(factors) != 3:
        raise ValueError("joint state must live on X (x) Y1 (x) Y2")
    dx, d1, d2 = factors
    marg = ptrace_array(rho.array, factors, [1, 2])
    if np.abs(marg - sigma.array).max() > MARGINAL_TOL:
        raise ValueError("joint state's overlap marginal does not match sigma")
    inv_sqrt, _proj, comp = _sigma_parts(sigma)
    conj = np.kron(inv_sqrt, np.eye(d1 * d2))
    j = conj @ rho.array @ conj + np.kron(comp, np.eye(d1 * d2)) / (d1 * d2)
    return Channel.from_choi(j, dx, (d1, d2))


def lift_povm_compatibilizer(parts, preps1, preps2) -> Channel:
    """Compatibilizer of two measure-and-prepare channels from a joint POVM.

    ``parts[i][j]`` are the joint effects; their row and column sums are
    the generating POVMs of the two channels, and the output channel
    measures the joint POVM and prepares the corresponding product state.
    """
    effects = [np.asarray(p, dtype=np.complex128) for row in parts for p in row]
    Povm(tuple(effects))  # validates PSD and sum to identity
    preps1 = [np.asarray(p, dtype=np.complex128) for p in preps1]
    preps2 = [np.asarray(p, dtype=np.complex128) for p in preps2]
    ni, nj = len(parts), len(parts[0])
    if len(preps1) != ni or len(preps2) != nj:
        raise ValueError("need one preparation per outcome on each side")
    dx = effects[0].shape[0]
    d1, d2 = preps1[0].shape[0], preps2[0].shape[0]
    j = np.zeros((dx * d1 * d2, dx * d1 * d2), dtype=np.complex128)
    for i in range(ni):
        for jj in range(nj):
            j += np.kron(np.asarray(parts[i][jj]).T, np.kron(preps1[i], preps2[jj]))
    return Channel.from_choi(j, dx, (d1, d2))


def _complete_projectors(projs, dim: int):
    """Validate pairwise-orthogonal projectors and append the completion."""
    projs = [np.asarray(p, dtype=np.complex128) for p in projs]
    check_projectors(projs)
    rest = np.eye(dim) - sum(projs)
    if np.abs(rest).max() > MARGINAL_TOL:
        projs = projs + [rest]
    return projs


def extract_povm_compatibilizer(comp: Channel, proj1, proj2):
    """Joint POVM recovered from a compatibilizer via the adjoint map.

    The projector families (onto the supports of distinguishable
    preparations) are completed automatically when they do not resolve
    the identity.
    """
    if len(comp.rep.output_factors) != 2:
        raise ValueError("compatibilizer must declare a two-factor output")
    d1, d2 = comp.rep.output_factors
    proj1 = _complete_projectors(proj1, d1)
    proj2 = _complete_projectors(proj2, d2)
    parts = []
    for pa in proj1:
        row = []
        for pb in proj2:
            row.append(apply_adjoint_array(comp.rep, np.kron(pa, pb)))
        parts.append(row)
    Povm(tuple(p for row in parts for p in row))
    return parts


def instrument_from_compatibilizer(comp: Channel, m: int) -> list[LinearMapRep]:
    """CP branches of a compatibilizer whose second output factor is classical.

    Branch i is the (i, i) diagonal block on the classical register; the
    branches sum to the first marginal and their traces read out a POVM.
    """
    if len(comp.rep.output_factors) != 2 or comp.rep.output_factors[1] != m:
        raise ValueError(f"compatibilizer must have a size-{m} classical register")
    dx, dy = comp.d_in, comp.rep.output_factors[0]
    tens = comp.choi.array.reshape(dx, dy, m, dx, dy, m)
    branches = []
    for i in range(m):
        block = tens[:, :, i, :, :, i].reshape(dx * dy, dx * dy)
        branches.append(LinearMapRep.from_choi(block, dx))
    return branches
