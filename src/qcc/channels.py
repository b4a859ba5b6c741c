"""Channels represented by their Choi matrices.

Index convention, fixed project-wide: for a map Phi from a d_in-dimensional
system to a d_out-dimensional one,

    J(Phi)[(i*d_out + a), (j*d_out + b)] = Phi(E_ij)[a, b],

i.e. J(Phi) = sum_ij E_ij (x) Phi(E_ij) with the input factor leftmost.
A map is completely positive iff J >= 0 and trace preserving iff the
partial trace of J over the output factors is the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .linalg import (
    HermitianMatrix,
    TensorShape,
    herm_to_vec,
    hermitian_basis,
    ptrace_array,
    ptranspose_array,
    vec_to_herm,
)

CP_TOL = 1e-8
TP_TOL = 1e-8
POVM_TOL = 1e-10
INVERT_MAX_COND = 1e12
JSON_HERMITIAN_TOL = 1e-10  # on a matrix payload read from JSON


class SingularMapError(ValueError):
    """Raised when a linear map has no (numerically trustworthy) inverse."""

    def __init__(self, message: str, smallest_sv: float):
        super().__init__(f"{message} (smallest singular value {smallest_sv:.3e})")
        self.smallest_sv = smallest_sv


@dataclass(frozen=True)
class LinearMapRep:
    """A Hermitian-preserving linear map, stored as its Choi matrix.

    ``output_factors`` records the tensor factorization of the output
    space (a compatibilizer has output Y1 (x) Y2); the Choi matrix's
    factor list is always (d_in, *output_factors).
    """

    choi: HermitianMatrix
    d_in: int
    d_out: int
    output_factors: tuple[int, ...]

    @classmethod
    def from_choi(cls, arr, d_in: int, output_factors: Optional[Sequence[int]] = None):
        arr = np.asarray(arr, dtype=np.complex128)
        side = arr.shape[0]
        if side % d_in != 0:
            raise ValueError(f"Choi side {side} not divisible by d_in={d_in}")
        d_out = side // d_in
        if output_factors is None:
            output_factors = (d_out,)
        output_factors = tuple(int(d) for d in output_factors)
        if math.prod(output_factors) != d_out:
            raise ValueError(f"output factors {output_factors} do not multiply to {d_out}")
        choi = HermitianMatrix(arr, TensorShape((d_in,) + output_factors))
        return cls(choi, d_in, d_out, output_factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.d_in,) + self.output_factors

    def transfer_tensor(self) -> np.ndarray:
        """T[x, x', a, b] = Phi(E_xx')[a, b]; the action in tensor form."""
        d, o = self.d_in, self.d_out
        return self.choi.array.reshape(d, o, d, o).transpose(0, 2, 1, 3)


@dataclass(frozen=True)
class Channel:
    """A completely positive, trace-preserving map (validated on construction)."""

    rep: LinearMapRep

    def __post_init__(self):
        report = validate(self.rep)
        if not report.cp:
            raise ValueError(f"map is not completely positive (min eig {report.min_eig:.3e})")
        if not report.tp:
            raise ValueError(f"map is not trace preserving (marginal dev {report.tp_dev:.3e})")

    @classmethod
    def from_choi(cls, arr, d_in: int, output_factors: Optional[Sequence[int]] = None):
        return cls(LinearMapRep.from_choi(arr, d_in, output_factors))

    @property
    def d_in(self) -> int:
        return self.rep.d_in

    @property
    def d_out(self) -> int:
        return self.rep.d_out

    @property
    def choi(self) -> HermitianMatrix:
        return self.rep.choi


@dataclass(frozen=True)
class Povm:
    """A resolution of the identity into positive effects."""

    effects: tuple[np.ndarray, ...]

    def __post_init__(self):
        effects = tuple(np.asarray(e, dtype=np.complex128) for e in self.effects)
        if not effects:
            raise ValueError("POVM needs at least one effect")
        d = effects[0].shape[0]
        total = np.zeros((d, d), dtype=np.complex128)
        for e in effects:
            if e.shape != (d, d):
                raise ValueError("POVM effects must share one space")
            if np.linalg.eigvalsh((e + e.conj().T) / 2).min() < -POVM_TOL:
                raise ValueError("POVM effect is not PSD")
            total += e
        if np.abs(total - np.eye(d)).max() > POVM_TOL:
            raise ValueError("POVM effects do not sum to the identity")
        object.__setattr__(self, "effects", effects)

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    def __len__(self) -> int:
        return len(self.effects)


@dataclass(frozen=True)
class MeasurePrepare:
    """Generating pair of a measure-and-prepare channel: POVM plus preparations."""

    povm: Povm
    preps: tuple[np.ndarray, ...]

    def __post_init__(self):
        preps = tuple(np.asarray(p, dtype=np.complex128) for p in self.preps)
        if len(preps) != len(self.povm):
            raise ValueError("need one preparation per POVM effect")
        for p in preps:
            if abs(np.trace(p).real - 1.0) > POVM_TOL or abs(np.trace(p).imag) > POVM_TOL:
                raise ValueError("preparation state must have unit trace")
            if np.linalg.eigvalsh((p + p.conj().T) / 2).min() < -POVM_TOL:
                raise ValueError("preparation state must be PSD")
        object.__setattr__(self, "preps", preps)


@dataclass(frozen=True)
class ValidationReport:
    cp: bool
    tp: bool
    unital: bool
    eb_2x2: Optional[bool]
    min_eig: float
    tp_dev: float


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _choi_identity(d: int) -> np.ndarray:
    j = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for k in range(d):
            j[i * d + i, k * d + k] = 1.0
    return j


def identity_channel(d: int) -> Channel:
    return Channel.from_choi(_choi_identity(d), d)


def dephasing_channel(d: int) -> Channel:
    j = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        j[i * d + i, i * d + i] = 1.0
    return Channel.from_choi(j, d)


def depolarizing_channel(d: int) -> Channel:
    return Channel.from_choi(np.eye(d * d) / d, d)


def partial_depolarizing_channel(q: float, d: int = 2) -> Channel:
    """(1-q) * identity + q * depolarizing."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    j = (1.0 - q) * _choi_identity(d) + q * np.eye(d * d) / d
    return Channel.from_choi(j, d)


def xi_channel(p: float, q: float, d: int = 2) -> Channel:
    """Partially dephasing-depolarizing channel: (1-p-q) id + p dephasing + q depolarizing."""
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0 and p + q <= 1.0 + 1e-12):
        raise ValueError(f"need p, q in [0, 1] with p + q <= 1, got p={p}, q={q}")
    j = (1.0 - p - q) * _choi_identity(d) + p * dephasing_channel(d).choi.array
    j = j + q * np.eye(d * d) / d
    return Channel.from_choi(j, d)


def unitary_channel(u) -> Channel:
    u = np.asarray(u, dtype=np.complex128)
    d = u.shape[0]
    if np.abs(u @ u.conj().T - np.eye(d)).max() > 1e-10:
        raise ValueError("matrix is not unitary")
    m = u.T.reshape(-1)
    j = np.outer(m, m.conj())
    return Channel.from_choi(j, d)


def constant_channel(rho, d_in: int) -> Channel:
    rho = np.asarray(rho, dtype=np.complex128)
    if abs(np.trace(rho) - 1.0) > 1e-10 or np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() < -1e-10:
        raise ValueError("output must be a density matrix")
    return Channel.from_choi(np.kron(np.eye(d_in), rho), d_in)


def pinching_channel(pvm: Povm) -> Channel:
    """X -> sum_i P_i X P_i for a projective measurement."""
    d = pvm.dim
    for e in pvm.effects:
        if np.abs(e @ e - e).max() > 1e-9:
            raise ValueError("pinching requires orthogonal projections")
    j = np.zeros((d * d, d * d), dtype=np.complex128)
    for e in pvm.effects:
        m = e.T.reshape(-1)
        j += np.outer(m, m.conj())
    return Channel.from_choi(j, d)


def measurement_channel(povm: Povm) -> Channel:
    """X -> sum_i <M_i, X> E_ii, recording outcomes in the computational basis."""
    d, m = povm.dim, len(povm)
    j = np.zeros((d * m, d * m), dtype=np.complex128)
    for i, eff in enumerate(povm.effects):
        e_ii = np.zeros((m, m))
        e_ii[i, i] = 1.0
        j += np.kron(eff.T, e_ii)
    return Channel.from_choi(j, d)


def measure_prepare_channel(mp: MeasurePrepare) -> Channel:
    """Channel generated by a POVM and per-outcome preparations."""
    d_out = mp.preps[0].shape[0]
    d_in = mp.povm.dim
    j = np.zeros((d_in * d_out, d_in * d_out), dtype=np.complex128)
    for eff, prep in zip(mp.povm.effects, mp.preps):
        j += np.kron(eff.T, prep)
    return Channel.from_choi(j, d_in)


_STANDARD_KINDS = {
    "identity": lambda d, **kw: identity_channel(d),
    "dephasing": lambda d, **kw: dephasing_channel(d),
    "depolarizing": lambda d, **kw: depolarizing_channel(d),
    "partial_depolarizing": lambda d, q, **kw: partial_depolarizing_channel(q, d),
    "xi": lambda d, p, q, **kw: xi_channel(p, q, d),
    "unitary": lambda d, U, **kw: unitary_channel(U),
    "constant": lambda d, rho, **kw: constant_channel(rho, d),
    "pinching": lambda d, pvm, **kw: pinching_channel(pvm),
    "measurement": lambda d, povm, **kw: measurement_channel(povm),
}


def standard_channel(kind: str, d_in: int, **params) -> Channel:
    """Dispatch on a named channel family; see ``_STANDARD_KINDS``."""
    try:
        maker = _STANDARD_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown channel kind {kind!r}") from None
    return maker(d_in, **params)


# ---------------------------------------------------------------------------
# action, validation, composition
# ---------------------------------------------------------------------------


def apply_array(rep: LinearMapRep, x: np.ndarray) -> np.ndarray:
    """Action of the map on an arbitrary operator."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (rep.d_in, rep.d_in):
        raise ValueError(f"input must be {rep.d_in} x {rep.d_in}, got {x.shape}")
    return np.einsum("xy,xyab->ab", x, rep.transfer_tensor())


def apply(rep: LinearMapRep, x: HermitianMatrix) -> HermitianMatrix:
    """Apply the map to a Hermitian operator."""
    out = apply_array(rep, x.array)
    return HermitianMatrix(out, TensorShape(rep.output_factors))


def apply_adjoint_array(rep: LinearMapRep, y: np.ndarray) -> np.ndarray:
    """Action of the adjoint map on an operator of the output space."""
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != (rep.d_out, rep.d_out):
        raise ValueError(f"input must be {rep.d_out} x {rep.d_out}, got {y.shape}")
    return np.einsum("ab,xyab->xy", y, rep.transfer_tensor().conj())


def apply_to_factor(arr: np.ndarray, dims: Sequence[int], factor: int, rep: LinearMapRep,
                    adjoint: bool = False) -> tuple[np.ndarray, list[int]]:
    """Apply a map to one tensor factor of a dense matrix on a product space.

    Leading axes of ``arr`` are batch axes.  Returns the new matrix (or
    stack) and the updated factor dimension list; a float ``arr`` through
    a map whose Choi matrix is real gives a float result.
    """
    dims = list(dims)
    n = len(dims)
    d_from = rep.d_out if adjoint else rep.d_in
    d_to = rep.d_in if adjoint else rep.d_out
    if dims[factor] != d_from:
        raise ValueError(f"factor {factor} has dim {dims[factor]}, map expects {d_from}")
    t = rep.transfer_tensor()
    if adjoint:
        t = t.conj().transpose(2, 3, 0, 1)
    if not np.iscomplexobj(arr) and not t.imag.any():
        t = t.real  # a real matrix through a real map stays real
    batch = arr.shape[:-2]
    tens = arr.reshape(*batch, *dims, *dims)
    # contract (row, col) indices of the chosen factor against T[m, n, y, w]
    src = list(range(2 * n))
    t_lbl = [factor, n + factor, 2 * n, 2 * n + 1]
    out_lbl = src.copy()
    out_lbl[factor] = 2 * n
    out_lbl[n + factor] = 2 * n + 1
    res = np.einsum(tens, [Ellipsis] + src, t, t_lbl, [Ellipsis] + out_lbl)
    dims[factor] = d_to
    d_total = math.prod(dims)
    return res.reshape(*batch, d_total, d_total), dims


def validate(rep: LinearMapRep) -> ValidationReport:
    """CP / TP / unital report; at 2x2 also entanglement breaking via PPT."""
    arr = rep.choi.array
    w = np.linalg.eigvalsh(arr)
    min_eig = float(w[0])
    cp = bool(min_eig >= -CP_TOL)
    marg_in = ptrace_array(arr, rep.dims, range(1, len(rep.dims)))
    tp_dev = float(np.abs(marg_in - np.eye(rep.d_in)).max())
    tp = bool(tp_dev <= TP_TOL)
    marg_out = ptrace_array(arr, rep.dims, [0])
    unital = bool(np.abs(marg_out - np.eye(rep.d_out)).max() <= TP_TOL)
    eb = None
    if rep.d_in == 2 and rep.d_out == 2:
        pt = ptranspose_array(arr, (2, 2), 0)
        eb = bool(cp and np.linalg.eigvalsh(pt).min() >= -CP_TOL)
    return ValidationReport(cp, tp, unital, eb, min_eig, tp_dev)


def compose(g: LinearMapRep, f: LinearMapRep) -> LinearMapRep:
    """The map g after f."""
    if g.d_in != f.d_out:
        raise ValueError(f"inner dimensions differ: {g.d_in} vs {f.d_out}")
    jf = f.choi.array.reshape(f.d_in, f.d_out, f.d_in, f.d_out)
    tg = g.transfer_tensor()
    out = np.einsum("xayb,abcd->xcyd", jf, tg)
    side = f.d_in * g.d_out
    return LinearMapRep.from_choi(out.reshape(side, side), f.d_in, g.output_factors)


def tensor(f: LinearMapRep, g: LinearMapRep) -> LinearMapRep:
    """The map f (x) g on the product of the input spaces."""
    jf = f.choi.array.reshape(f.d_in, f.d_out, f.d_in, f.d_out)
    jg = g.choi.array.reshape(g.d_in, g.d_out, g.d_in, g.d_out)
    out = np.einsum("iajb,kcld->ikacjlbd", jf, jg)
    d_in = f.d_in * g.d_in
    side = d_in * f.d_out * g.d_out
    return LinearMapRep.from_choi(
        out.reshape(side, side), d_in, f.output_factors + g.output_factors
    )


def channel_marginal(ch: Channel, keep: int) -> Channel:
    """Marginal of a channel into Y1 (x) Y2; ``keep`` is 1 or 2."""
    if len(ch.rep.output_factors) != 2:
        raise ValueError("channel must declare a two-factor output space")
    if keep not in (1, 2):
        raise ValueError("keep must be 1 or 2")
    traced = 2 if keep == 1 else 1
    arr = ptrace_array(ch.choi.array, ch.rep.dims, [traced])
    return Channel.from_choi(arr, ch.d_in)


def mix(f: LinearMapRep, g: LinearMapRep, lam: float) -> LinearMapRep:
    """Convex combination lam * f + (1 - lam) * g."""
    if (f.d_in, f.d_out) != (g.d_in, g.d_out):
        raise ValueError("maps must share input and output spaces")
    arr = lam * f.choi.array + (1.0 - lam) * g.choi.array
    return LinearMapRep.from_choi(arr, f.d_in, f.output_factors)


def mix_channels(f: Channel, g: Channel, lam: float) -> Channel:
    return Channel(mix(f.rep, g.rep, lam))


def map_matrix(rep: LinearMapRep) -> np.ndarray:
    """Real matrix of the map on the orthonormal Hermitian basis."""
    basis = hermitian_basis(rep.d_in)
    t = rep.transfer_tensor()
    images = np.einsum("nxy,xyab->nab", basis, t)
    cols = [herm_to_vec(images[k]) for k in range(basis.shape[0])]
    return np.array(cols).T


def invert_map(rep: LinearMapRep) -> LinearMapRep:
    """Inverse of the map as a linear map on operators.

    The inverse of a trace-preserving map is trace preserving, but it is
    generally not completely positive, so the result is a plain
    ``LinearMapRep``.
    """
    if rep.d_in != rep.d_out:
        raise SingularMapError("map between spaces of different dimension", 0.0)
    k = map_matrix(rep)
    svals = np.linalg.svd(k, compute_uv=False)
    if svals[-1] <= 0 or svals[0] / svals[-1] > INVERT_MAX_COND:
        raise SingularMapError("map is singular or near-singular", float(svals[-1]))
    kinv = np.linalg.inv(k)
    d = rep.d_in
    basis = hermitian_basis(d)
    j = np.zeros((d * d, d * d), dtype=np.complex128)
    for alpha in range(d * d):
        img = vec_to_herm(kinv[:, alpha], d)
        j += np.kron(basis[alpha].T, img)
    return LinearMapRep.from_choi(j, d)


# ---------------------------------------------------------------------------
# separable decomposition at 2 (x) 2
# ---------------------------------------------------------------------------

_FLIP = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=np.complex128)
_H4 = 0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], float)


def _closing_phases(lams: np.ndarray) -> np.ndarray:
    """Phases theta with sum_j lams[j] * exp(2i theta_j) = 0.

    ``lams`` is descending with lams[0] <= sum of the rest (a closable
    polygon); sides 2..4 are merged into one triangle edge.
    """
    a, b, c = lams[0], lams[1], lams[2] + lams[3]
    if a <= 1e-15:
        return np.zeros(4)
    # triangle inequality holds: lams descending and closable
    cos_beta = np.clip((c * c - a * a - b * b) / (2.0 * a * b), -1.0, 1.0) if b > 0 else -1.0
    beta = np.arccos(cos_beta)
    z1 = a
    z2 = b * np.exp(1j * beta)
    z3 = -(z1 + z2)
    phi = np.array([0.0, beta, np.angle(z3), np.angle(z3)])
    return phi / 2.0


def measure_prepare_decomposition(rep: LinearMapRep) -> MeasurePrepare:
    """Generating POVM and preparations of a qubit measure-and-prepare channel.

    Works for 2x2 input and output, where a PPT Choi matrix is separable;
    the decomposition splits the Choi matrix into at most four product
    terms with vanishing spin-flip overlap.
    """
    if rep.d_in != 2 or rep.d_out != 2:
        raise ValueError("decomposition implemented for qubit-to-qubit maps only")
    arr = rep.choi.array
    w, v = np.linalg.eigh(arr)
    if w[0] < -CP_TOL:
        raise ValueError("Choi matrix is not PSD")
    pt = ptranspose_array(arr, (2, 2), 0)
    if np.linalg.eigvalsh(pt).min() < -CP_TOL:
        raise ValueError("Choi matrix is not PPT, so the map is not measure-and-prepare")
    vecs = [v[:, k] * np.sqrt(max(w[k], 0.0)) for k in range(4) if w[k] > 1e-13 * max(w[-1], 1.0)]
    r = len(vecs)
    tau = np.zeros((r, r), dtype=np.complex128)
    for i in range(r):
        for j in range(r):
            tau[i, j] = np.vdot(vecs[i], _FLIP @ vecs[j].conj())
    # Autonne-Takagi of the symmetric flip-overlap matrix
    lam, u = _takagi(tau)
    xs = [sum(u[j, i] * vecs[j] for j in range(r)) for i in range(r)]
    lams = np.zeros(4)
    lams[:r] = lam
    if lams[0] > lams[1:].sum() + 1e-7:
        raise ValueError("Choi matrix is entangled (positive concurrence)")
    theta = _closing_phases(lams)
    zs = []
    for k in range(4):
        z = np.zeros(4, dtype=np.complex128)
        for j in range(r):
            z += _H4[k, j] * np.exp(-1j * theta[j]) * xs[j]
        zs.append(z)
    # each z has zero flip overlap, hence is a product vector a (x) b;
    # the term z z^dag = (a a^dag) (x) (b b^dag) contributes the POVM
    # element (a a^dag)^T and the preparation b b^dag
    effects, preps = [], []
    for z in zs:
        if float(np.vdot(z, z).real) < 1e-14:
            continue
        m = z.reshape(2, 2)
        uu, ss, vv = np.linalg.svd(m)
        if ss[1] > 1e-7 * max(ss[0], 1e-300):
            raise ValueError("decomposition produced a non-product term")
        a = uu[:, 0] * ss[0]
        b = vv[0, :]
        effects.append(np.outer(a.conj(), a))
        preps.append(np.outer(b, b.conj()))
    povm = Povm(tuple(effects))
    return MeasurePrepare(povm, tuple(preps))


def _takagi(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Autonne-Takagi factorization a = U diag(lam) U^T of a complex symmetric matrix.

    Returns (lam descending >= 0, U unitary).  Built from the eigenvectors
    of the real symmetric embedding [[Re a, Im a], [Im a, -Re a]].
    """
    n = a.shape[0]
    t = np.block([[a.real, a.imag], [a.imag, -a.real]])
    w, v = np.linalg.eigh(t)
    tol = 1e-12 * max(1.0, np.abs(w).max())
    pos = [k for k in range(2 * n) if w[k] > tol]
    cols = [v[:n, k] + 1j * v[n:, k] for k in pos]
    lams = [w[k] for k in pos]
    # fill the kernel: complex-orthonormalize candidates from the zero space
    zero = [k for k in range(2 * n) if abs(w[k]) <= tol]
    for k in zero:
        if len(cols) == n:
            break
        cand = v[:n, k] + 1j * v[n:, k]
        for c in cols:
            cand = cand - c * np.vdot(c, cand)
        nrm = np.linalg.norm(cand)
        if nrm > 1e-8:
            cols.append(cand / nrm)
            lams.append(0.0)
    if len(cols) != n:
        raise np.linalg.LinAlgError("Takagi factorization failed to complete a basis")
    order = np.argsort(lams)[::-1]
    u = np.array([cols[k] for k in order]).T
    lam = np.array([lams[k] for k in order])
    return lam, u


# ---------------------------------------------------------------------------
# JSON channel format (shared with the CLI)
# ---------------------------------------------------------------------------


def _matrix_to_json(arr: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(arr, dtype=complex)]


def _matrix_from_json(data) -> np.ndarray:
    arr = np.array([[complex(re, im) for re, im in row] for row in data])
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("matrix payload must be square")
    if np.abs(arr - arr.conj().T).max() > JSON_HERMITIAN_TOL:
        raise ValueError(f"matrix payload is not Hermitian within {JSON_HERMITIAN_TOL:g}")
    return arr


def channel_to_json(ch: Channel) -> dict:
    data = {
        "d_in": ch.d_in,
        "d_out": ch.d_out,
        "choi": _matrix_to_json(ch.choi.array),
    }
    if len(ch.rep.output_factors) > 1:
        data["output_factors"] = list(ch.rep.output_factors)
    return data


def channel_from_json(data: dict) -> Channel:
    d_in = int(data["d_in"])
    d_out = int(data["d_out"])
    arr = _matrix_from_json(data["choi"])
    if arr.shape[0] != d_in * d_out:
        raise ValueError("Choi side does not match d_in * d_out")
    factors = data.get("output_factors")
    return Channel.from_choi(arr, d_in, factors)
