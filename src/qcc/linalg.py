"""Dense linear algebra over tensor-product spaces.

Matrices are complex Hermitian; the coordinate maps ``herm_to_vec`` and
``vec_to_herm`` also serve the real symmetric matrices over which the
SDP layer solves programs with real data, in n(n+1)/2 coordinates
instead of n^2 (``symmetric_basis``).  Matrices carry an explicit
factorization of their index space (e.g. a compatibilizer Choi matrix
lives on X ⊗ Y1 ⊗ Y2), and all partial traces / transposes address
factors by position in that factorization.
Everything here is a pure function of immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

HERMITICITY_TOL = 1e-12
# Relative eigenvalue cutoff shared by every support-projector /
# pseudo-inverse computation in the package.  An absolute cutoff breaks
# on scaled inputs.
RANK_CUTOFF = 1e-10
# relative residual of A - (P (x) I) A (P (x) I) in support_projection_absorbs
SUPPORT_ABSORB_TOL = 1e-9


@dataclass(frozen=True)
class TensorShape:
    """Ordered list of tensor-factor dimensions for a matrix index space."""

    factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(int(d) for d in self.factors)
        if len(factors) == 0:
            raise ValueError("TensorShape needs at least one factor")
        if any(d < 1 for d in factors):
            raise ValueError(f"factor dimensions must be positive, got {factors}")
        object.__setattr__(self, "factors", factors)

    @property
    def dim(self) -> int:
        return math.prod(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def drop(self, traced: Iterable[int]) -> "TensorShape":
        """Shape left over after removing the given factor positions."""
        traced = set(traced)
        kept = [d for i, d in enumerate(self.factors) if i not in traced]
        if not kept:
            kept = [1]
        return TensorShape(tuple(kept))


def _as_shape(shape, side: int) -> TensorShape:
    if shape is None:
        return TensorShape((side,))
    if isinstance(shape, TensorShape):
        out = shape
    else:
        out = TensorShape(tuple(shape))
    if out.dim != side:
        raise ValueError(f"shape {out.factors} does not multiply to side {side}")
    return out


class HermitianMatrix:
    """A dense complex Hermitian matrix with a tensor-factor shape.

    Construction symmetrizes (M + M†)/2 when the deviation is within
    ``HERMITICITY_TOL`` (max-norm) and rejects the input otherwise.
    """

    __slots__ = ("array", "shape")

    def __init__(self, entries, shape=None):
        arr = np.asarray(entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        dev = np.abs(arr - arr.conj().T).max() if arr.size else 0.0
        scale = max(1.0, np.abs(arr).max()) if arr.size else 1.0
        if dev > HERMITICITY_TOL * scale:
            raise ValueError(f"matrix is not Hermitian: max |M - M^dag| = {dev:.3e}")
        arr = (arr + arr.conj().T) / 2
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "shape", _as_shape(shape, arr.shape[0]))

    def __setattr__(self, name, value):
        raise AttributeError("HermitianMatrix is immutable")

    def __reduce__(self):
        # the default would restore the slots through __setattr__ above
        return HermitianMatrix, (self.array, self.shape)

    @property
    def side(self) -> int:
        return self.array.shape[0]

    def __repr__(self):
        return f"HermitianMatrix(side={self.side}, factors={self.shape.factors})"


# ---------------------------------------------------------------------------
# array-level kernels (used internally and by the SDP machinery)
# ---------------------------------------------------------------------------


def ptrace_array(arr: np.ndarray, dims: Sequence[int], traced: Iterable[int]) -> np.ndarray:
    """Partial trace over the listed factor positions of a dense matrix.

    Leading axes of ``arr`` are batch axes: a stack of matrices is traced
    matrix by matrix.
    """
    dims = list(dims)
    n = len(dims)
    traced = sorted(set(traced))
    for t in traced:
        if not 0 <= t < n:
            raise IndexError(f"factor index {t} out of range for {dims}")
    batch = arr.shape[:-2]
    tens = arr.reshape(*batch, *dims, *dims)
    labels = list(range(2 * n))
    for t in traced:
        labels[n + t] = labels[t]
    kept = [i for i in range(n) if i not in traced]
    out_labels = kept + [n + k for k in kept]
    d_out = math.prod(dims[k] for k in kept)
    out = np.einsum(tens, [Ellipsis] + labels, [Ellipsis] + out_labels)
    return out.reshape(*batch, d_out, d_out)


def ptranspose_array(arr: np.ndarray, dims: Sequence[int], factor: int) -> np.ndarray:
    """Transpose a single tensor factor of a dense matrix (or a stack of them)."""
    dims = list(dims)
    n = len(dims)
    if not 0 <= factor < n:
        raise IndexError(f"factor index {factor} out of range for {dims}")
    batch = arr.shape[:-2]
    nb = len(batch)
    tens = arr.reshape(*batch, *dims, *dims)
    perm = list(range(nb + 2 * n))
    perm[nb + factor], perm[nb + n + factor] = perm[nb + n + factor], perm[nb + factor]
    return np.ascontiguousarray(tens.transpose(perm)).reshape(arr.shape)


def embed_identity_array(
    arr: np.ndarray, occ_dims: Sequence[int], full_dims: Sequence[int], positions: Sequence[int]
) -> np.ndarray:
    """Tensor ``arr`` (on the factors at ``positions``) with identities elsewhere.

    This is the adjoint of the partial trace over the complementary
    factors, with the factor ordering of ``full_dims`` preserved.  Leading
    axes of ``arr`` are batch axes.
    """
    full_dims = list(full_dims)
    positions = list(positions)
    if len(positions) != len(occ_dims):
        raise ValueError("positions and occupied dims must align")
    for pos, d in zip(positions, occ_dims):
        if full_dims[pos] != d:
            raise ValueError("occupied factor dimension mismatch")
    n = len(full_dims)
    free = [i for i in range(n) if i not in positions]
    batch = arr.shape[:-2]
    nb = len(batch)
    tens = arr.reshape(*batch, *occ_dims, *occ_dims)
    for i in free:
        eye = np.eye(full_dims[i])
        tens = np.tensordot(tens, eye, axes=0)
    # current order: batch, occupied rows, occupied cols, then (row, col) per free factor
    k = len(positions)
    row_axes = {p: nb + i for i, p in enumerate(positions)}
    col_axes = {p: nb + k + i for i, p in enumerate(positions)}
    for i, f in enumerate(free):
        row_axes[f] = nb + 2 * k + 2 * i
        col_axes[f] = nb + 2 * k + 2 * i + 1
    perm = list(range(nb)) + [row_axes[i] for i in range(n)] + [col_axes[i] for i in range(n)]
    d = math.prod(full_dims)
    return np.ascontiguousarray(tens.transpose(perm)).reshape(*batch, d, d)


def hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal real basis of the n x n Hermitian matrices, shape (n^2, n, n).

    Ordering: diagonal units first, then (E_ij + E_ji)/sqrt(2) and
    i(E_ij - E_ji)/sqrt(2) for i < j.  Orthonormal under <A, B> = Tr(AB).
    """
    basis = np.zeros((n * n, n, n), dtype=np.complex128)
    k = 0
    for i in range(n):
        basis[k, i, i] = 1.0
        k += 1
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            basis[k, i, j] = inv_sqrt2
            basis[k, j, i] = inv_sqrt2
            k += 1
            basis[k, i, j] = 1j * inv_sqrt2
            basis[k, j, i] = -1j * inv_sqrt2
            k += 1
    return basis


def symmetric_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the n x n real symmetric matrices, shape
    (n(n+1)/2, n, n), float64: ``hermitian_basis`` without its imaginary
    elements, in the same order."""
    keep = np.r_[0:n, n : n * n : 2]
    return np.ascontiguousarray(hermitian_basis(n)[keep].real)


@lru_cache(maxsize=32)
def _herm_coords(n: int, real: bool = False) -> tuple[np.ndarray, ...]:
    """Lookup tables between an n x n Hermitian matrix and its coordinates,
    over the complex field or, with ``real``, over the real symmetric
    matrices (the coordinates of ``symmetric_basis``).

    A slot is a position in the matrix's flat float64 view: the
    interleaved (re, im) view of length 2 n^2 of a complex matrix, or the
    n^2 entries of a real one.  The complex tables of one side take
    40 n^2 bytes (2.6 MB at n = 256), the real ones half that.  Returns,
    each read-only:

    - ``pos``: the slot of each coordinate (the diagonal's real parts,
      then re and im of each upper entry (i, j), i < j, row by row; a
      real matrix has no im coordinates);
    - ``src``, ``to_herm``: for each slot, the coordinate it is read
      from and its scale: 1 on the diagonal, 1/sqrt(2) above it,
      1/sqrt(2) and -1/sqrt(2) for re and im below it (the mirrored
      upper entry).  A complex diagonal's imaginary slots are left at 0;
      ``vec_to_herm`` zeroes them.
    """
    iu, ju = np.triu_indices(n, k=1)
    width = 1 if real else 2  # float64 slots per entry
    upper = width * (iu * n + ju)
    lower = width * (ju * n + iu)
    coords = np.arange(n * (n + 1) // 2 if real else n * n)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    pos = np.empty(coords.size, dtype=np.intp)
    pos[:n] = width * (n + 1) * coords[:n]
    src = np.zeros(width * n * n, dtype=np.intp)
    to_herm = np.zeros(width * n * n)
    if real:
        pos[n:] = upper
    else:
        pos[n::2] = upper
        pos[n + 1 :: 2] = upper + 1
    src[pos] = coords
    to_herm[pos] = np.where(coords < n, 1.0, inv_sqrt2)
    if real:
        src[lower] = coords[n:]
        to_herm[lower] = inv_sqrt2
    else:
        src[lower] = coords[n::2]
        src[lower + 1] = coords[n + 1 :: 2]
        to_herm[lower] = inv_sqrt2
        to_herm[lower + 1] = -inv_sqrt2
    tables = (pos, src, to_herm)
    for table in tables:
        table.setflags(write=False)
    return tables


def herm_to_vec(arr: np.ndarray, real: bool = False) -> np.ndarray:
    """Real coordinates of a Hermitian matrix in the ``hermitian_basis``
    order, or with ``real`` of a real symmetric one in the
    ``symmetric_basis`` order.

    Leading axes are batch axes: (..., n, n) -> (..., n^2), or
    (..., n(n+1)/2) with ``real``.  One gather from the matrix's float
    view through the per-n lookup table ``pos`` of ``_herm_coords``,
    then the off-diagonal coordinates are scaled by sqrt(2); only the
    diagonal and the upper triangle are read.
    """
    n = arr.shape[-1]
    pos = _herm_coords(n, real)[0]
    flat = np.ascontiguousarray(arr, dtype=np.float64 if real else np.complex128)
    flat = flat.reshape(arr.shape[:-2] + (n * n,))
    out = np.take(flat.view(np.float64), pos, axis=-1)
    out[..., n:] *= np.sqrt(2.0)  # in place: on a large batch a second array costs more than the gather
    return out


def vec_to_herm(vec: np.ndarray, n: int, real: bool = False) -> np.ndarray:
    """Inverse of :func:`herm_to_vec`: (..., n^2) -> (..., n, n) complex,
    or with ``real`` (..., n(n+1)/2) -> (..., n, n) float64.

    One gather of every slot of the matrix's float view from the
    coordinates, through the per-n lookup tables of ``_herm_coords``,
    then one scaling.
    """
    pos, src, to_herm = _herm_coords(n, real)
    if vec.shape[-1] != pos.size:
        raise ValueError(f"{vec.shape[-1]} coordinates, a side of {n} has {pos.size}")
    out = np.take(np.asarray(vec, dtype=np.float64), src, axis=-1)
    out *= to_herm
    if real:
        return out.reshape(vec.shape[:-1] + (n, n))
    # the diagonal's imaginary parts: +0, with no sign carried from the read
    out[..., 1 :: 2 * (n + 1)] = 0.0
    return out.view(np.complex128).reshape(vec.shape[:-1] + (n, n))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def kron(a: HermitianMatrix, b: HermitianMatrix) -> HermitianMatrix:
    """Kronecker product; the result's factor list is the concatenation."""
    arr = np.kron(a.array, b.array)
    return HermitianMatrix(arr, TensorShape(a.shape.factors + b.shape.factors))


def partial_trace(m: HermitianMatrix, traced) -> HermitianMatrix:
    """Trace out the factor positions in ``traced`` (int or iterable of ints)."""
    if isinstance(traced, (int, np.integer)):
        traced = {int(traced)}
    arr = ptrace_array(m.array, m.shape.factors, traced)
    return HermitianMatrix(arr, m.shape.drop(traced))


def partial_transpose(m: HermitianMatrix, factor: int) -> HermitianMatrix:
    """Transpose one tensor factor; an involution that preserves the trace."""
    arr = ptranspose_array(m.array, m.shape.factors, factor)
    return HermitianMatrix(arr, m.shape)


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, unitary eigenvector columns) with
    residuals ||M v - lambda v|| <= 1e-10 ||M||.  Raises
    ``numpy.linalg.LinAlgError`` on non-convergence.
    """
    arr = m.array if isinstance(m, HermitianMatrix) else np.asarray(m, dtype=np.complex128)
    return np.linalg.eigh(arr)


def pinv_sqrt(m: HermitianMatrix) -> HermitianMatrix:
    """Moore-Penrose pseudo-inverse of the square root of a PSD matrix.

    Eigenvalues below ``RANK_CUTOFF`` times the largest are treated as
    zero, so sigma^{-1/2} sigma sigma^{-1/2} is the support projector.
    """
    w, v = hermitian_eig(m)
    if w[0] < -1e-8 * max(1.0, abs(w[-1])):
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")
    cutoff = RANK_CUTOFF * max(w[-1], 0.0)
    inv = np.where(w > cutoff, 1.0 / np.sqrt(np.maximum(w, cutoff)), 0.0)
    arr = (v * inv) @ v.conj().T
    return HermitianMatrix(arr, m.shape)


def support_projector_array(arr: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the image of a PSD matrix (shared cutoff)."""
    w, v = np.linalg.eigh(np.asarray(arr, dtype=np.complex128))
    cutoff = RANK_CUTOFF * max(w[-1], 0.0)
    keep = w > cutoff
    vk = v[:, keep]
    return vk @ vk.conj().T


def swap_operator(d: int) -> HermitianMatrix:
    """The unitary W on C^d (x) C^d with W(u (x) v) = v (x) u."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    w = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            w[i * d + j, j * d + i] = 1.0
    return HermitianMatrix(w, TensorShape((d, d)))


def support_projection_absorbs(a: HermitianMatrix) -> bool:
    """Check A = (P (x) I) A (P (x) I) for P the support projector of the first marginal.

    The first factor of ``a`` is the marginal system; all remaining
    factors are traced out to form the marginal.  Fails only for inputs
    that are not numerically PSD.
    """
    dims = a.shape.factors
    if len(dims) < 2:
        raise ValueError("need at least two tensor factors")
    marg = ptrace_array(a.array, dims, range(1, len(dims)))
    proj = support_projector_array(marg)
    d_rest = math.prod(dims[1:])
    big = np.kron(proj, np.eye(d_rest))
    resid = np.abs(a.array - big @ a.array @ big).max()
    return bool(resid <= SUPPORT_ABSORB_TOL * max(1.0, np.abs(a.array).max()))
