"""Primal-dual interior-point solver for small dense symmetric SDP blocks.

Solves the inequality-form pair

    maximize    b . y                 minimize    sum_l <C_l, Z_l>
    subject to  S_l = C_l - A_l(y),   subject to  sum_l A_l^*(Z_l) = b,
                S_l >= 0                          Z_l >= 0

with an infeasible start, Nesterov-Todd scaling and a Mehrotra
predictor-corrector step.  Every matrix is dense and of one field, the
field of the data the compile hands over: real symmetric float64 for a
program with real data (``SdpProblem.real``), complex Hermitian
otherwise.  The same code runs on both, so a real program gets real
Cholesky, SVD and eigenvalue calls.  y is real, so inner products are
Re<A, B> = Re Tr(A^H B); A and A^* act as real matrix products on the
float views of the constraint blocks ((re, im) pairs for complex ones).
The blocks are an array axis: C, S and Z are (blocks, n, n) stacks and
the constraints one (m, blocks, n, n) array, since every block has the
same side n (``SdpProblem`` refuses blocks whose images differ in
side).  So A(y), A^*(Z), the residuals, the scaled products, the NT
Cholesky factors of S and Z, both step lengths and the update are one
numpy call each over the whole stack; a stack that does not factor
goes through the Cholesky helper one matrix at a time, from a plain
first attempt, each counting its own fallback.
The Schur complement has the side m of y, which the compile sets: the
constraint dimension less one for standard-form programs, the free
directions plus one otherwise (see ``problem``).  Sizes up to a few
hundred are the design point, so it is formed explicitly, by the
``schur`` callable the compile supplies, and factored at m^3 / 3 per
iteration.  For standard-form programs it is formed from the
partial-trace structure of the constraints as G M(V) G^T: a few
products of the NT-scaled block with itself, a gather into the
constraint rows and two products with G: about 1.2 ms of a 6.5 ms
complex qutrit compat iteration (m = 152, 27 x 27 blocks, one BLAS
thread of a 2-core VM), where the dense form takes 4.5 ms.  For
null-space programs it is the Gram matrix of the scaled constraint
blocks, m n^3 to form.  The NT factors of each iteration also give its
step lengths.  Each iteration takes one Newton step and nothing repairs
the iterate after it: the infeasible-start step already shrinks each
equality residual by the factor (1 - step) of its own step length.

Every Schur matrix is factored once per iteration, with the smallest
jitter of the Cholesky helper (1e-14 times its largest diagonal entry)
on its first attempt.  Near the optimum of a degenerate program a real
Schur matrix factors without that jitter at condition 1e16-1e18, and
the direction on the plain factor allows no step (the real
``xi_channel(0.45, 0.25)`` compat program) or misses its equations by
more than ``TOL``, so the solve wanders (the real xi(0.5, 0.15) k = 2
program: 31 iterations, 7 on jittered factors).  One step of iterative
refinement against the unjittered Schur matrix removes the jitter's
bias.  The helper counts a factorization as a fallback only when it
needs more than its first attempt: a larger jitter or the eigenvalue
clip.

The Schur system is solved on its Cholesky factor L by block
substitution, forward through L and back through L^T: each 64 x 64
diagonal block of L is inverted once per factor (``_block_inverses``),
and every solve with that factor, four per iteration, is then matrix
products with those inverses and the off-diagonal panels.  numpy
exposes no triangular solve, and a general solve on a block runs an LU
of it on every call.  The Schur matrix itself is never inverted:
solving with the inverse Schur matrix L^-T L^-1 ends a qutrit Jordan
solve in a step collapse, since near the optimum the Schur matrix
reaches condition numbers of 1e13 and beyond (1e19-1e21 in the last
qutrit iterations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_ITER = 200
TOL = 1e-9
STEP_FRACTION = 0.98
CHOL_BLOCK = 64  # diagonal block side of the substitution in _chol_solve


@dataclass
class IpmResult:
    y: np.ndarray
    S_blocks: np.ndarray  # (blocks, n, n)
    Z_blocks: np.ndarray  # (blocks, n, n)
    pobj: float
    dobj: float
    res_primal: float
    res_dual: float
    rel_gap: float
    iterations: int
    converged: bool
    note: str = ""
    chol_fallbacks: int = 0  # factorizations that needed more than their first attempt


def _ct(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return x.conj().swapaxes(-1, -2)


def _herm(x):
    return (x + _ct(x)) / 2


def _as_real(x: np.ndarray) -> np.ndarray:
    """View complex entries as interleaved (re, im) floats; a float array
    is that array.

    The dot product of two such views is Re<A, B>, so the Schur matrix
    Re(conj(B) B^T) of a stack of scaled blocks is one real Gram product.
    """
    dtype = np.complex128 if np.iscomplexobj(x) else np.float64
    return np.ascontiguousarray(x, dtype=dtype).view(np.float64)


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, b).real)


def _chol_pd(x: np.ndarray, jittered: bool = False) -> tuple[np.ndarray, bool]:
    """Cholesky with escalating jitter; eigenvalue clip as a last resort.

    With ``jittered`` the first attempt already carries the smallest
    jitter, 1e-14 times the largest diagonal entry.  Returns the factor
    and whether it needed more than its first attempt: a larger jitter
    or the clip.
    """
    scale = max(np.abs(np.diagonal(x)).max(), 1e-300)
    jitter = 1e-14 * scale if jittered else 0.0
    for attempt in range(4):
        try:
            return np.linalg.cholesky(x + jitter * np.eye(x.shape[0])), attempt > 0
        except np.linalg.LinAlgError:
            jitter = max(jitter * 100.0, 1e-14 * scale)
    w, v = np.linalg.eigh(_herm(x))
    w = np.maximum(w, 1e-14 * max(w.max(), 1e-300))
    return np.linalg.cholesky((v * w) @ v.conj().T), True


def _block_inverses(l: np.ndarray) -> list:
    """The inverse of each ``CHOL_BLOCK`` diagonal block of a Cholesky factor."""
    return [np.linalg.inv(l[i : i + CHOL_BLOCK, i : i + CHOL_BLOCK])
            for i in range(0, l.shape[0], CHOL_BLOCK)]


def _chol_solve(l: np.ndarray, linvs: list, rhs: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = rhs for a real Cholesky factor L by block
    substitution, with the inverses ``linvs`` of its diagonal blocks
    (``_block_inverses``)."""
    starts = list(enumerate(range(0, l.shape[0], CHOL_BLOCK)))
    x = np.array(rhs, dtype=np.float64)
    for k, i in starts:
        j = i + CHOL_BLOCK
        x[i:j] = linvs[k] @ (x[i:j] - l[i:j, :i] @ x[:i])
    for k, i in reversed(starts):
        j = i + CHOL_BLOCK
        x[i:j] = linvs[k].T @ (x[i:j] - l[j:, i:j].T @ x[j:])
    return x


def _nt_scaling(S: np.ndarray, Z: np.ndarray):
    """Nesterov-Todd scaling points of the stacked blocks: returns
    (R, Rinv, lam, fallbacks) with R^H Z R = R^{-1} S R^{-H} = diag(lam)
    and W^{-1} = Rinv^H Rinv on each block, and the number of the
    factorizations that fell back.

    One Cholesky call factors the whole (S, Z) stack; only when it fails
    does each matrix go through ``_chol_pd``, which counts its own
    fallback.  LAPACK factors a stack matrix by matrix, so the factors
    are the same either way.
    """
    stack = np.concatenate([S, Z])
    try:
        factors, fell = np.linalg.cholesky(stack), 0
    except np.linalg.LinAlgError:
        pairs = [_chol_pd(x) for x in stack]
        factors, fell = np.stack([l for l, _ in pairs]), sum(f for _, f in pairs)
    ls, lz = factors.reshape(2, *S.shape)
    u, sig, vh = np.linalg.svd(_ct(lz) @ ls)
    sig = np.maximum(sig, 1e-300)
    rinv = _ct(u / np.sqrt(sig)[..., None, :]) @ _ct(lz)
    r = ls @ (_ct(vh) / np.sqrt(sig)[..., None, :])
    return r, rinv, sig, fell


def _steps_to_boundary(lam: np.ndarray, gs: np.ndarray, gz: np.ndarray) -> tuple[float, float]:
    """Largest alpha <= 1 with diag(lam) + alpha g still PSD on every
    block, for g = ``gs`` and for g = ``gz``, from one ``eigvalsh`` over
    both stacks.

    With S = R diag(lam) R^H and Z = R^{-H} diag(lam) R^{-1}, a step dS
    keeps S PSD exactly when gs = R^{-1} dS R^{-H} does here, and dZ
    keeps Z PSD when gz = R^H dZ R does, so the NT factors give both
    step lengths without another factorization.
    """
    isq = 1.0 / np.sqrt(lam)
    scale = isq[..., :, None] * isq[..., None, :]
    lows = np.linalg.eigvalsh(_herm(np.stack([gs, gz])) * scale).min(axis=(1, 2))
    return tuple(1.0 if wmin >= -1e-14 else min(1.0, -1.0 / wmin) for wmin in lows)


def _residuals(y, S, Z, C, a_flat, b, c_scale, b_scale):
    """Dual and primal residuals, gap and both objectives at one point."""
    Rd = C - (y @ a_flat).view(C.dtype).reshape(C.shape) - S  # C - A(y) - S
    rp = b - a_flat @ _as_real(Z).ravel()  # b - A^*(Z)
    gap = _inner(Z, S)
    pobj = float(b @ y)
    dobj = _inner(C, Z)
    res_d = np.abs(Rd).max() / c_scale
    res_p = np.abs(rp).max() / b_scale
    rel_gap = max(abs(pobj - dobj), abs(gap)) / (1.0 + abs(pobj) + abs(dobj))
    return Rd, rp, gap, pobj, dobj, res_d, res_p, rel_gap


def solve_ipm(C_blocks, A_blocks, b, Z0, schur) -> IpmResult:
    """Solve the pair of the module docstring from y = 0, S = C shifted
    into the cone and Z = ``Z0``, to the residual and gap target ``TOL``
    in at most ``MAX_ITER`` iterations, both read at call time.

    ``C_blocks`` and ``Z0`` are (blocks, n, n) and ``A_blocks`` is
    (m, blocks, n, n).  ``schur(rinvs)`` returns the Schur matrix
    Re Tr(A_i V A_j V), summed over the blocks, at the inverse NT
    scalings V = Rinv^H Rinv of the (blocks, n, n) stack ``rinvs``.
    """
    m = b.shape[0]
    nblocks, n = C_blocks.shape[:2]
    ntot = nblocks * n
    eye = np.eye(n)
    a_flat = _as_real(A_blocks).reshape(m, -1)

    c_scale = max(1.0, np.abs(C_blocks).max())
    b_scale = max(1.0, np.abs(b).max())

    y = np.zeros(m)
    wmin = np.linalg.eigvalsh(C_blocks).min(axis=-1)
    S = C_blocks + (np.maximum(0.0, -wmin) + 0.1 * c_scale + 1.0)[:, None, None] * eye
    Z = Z0

    fallbacks = 0
    note = ""
    it = 0
    for it in range(1, MAX_ITER + 1):
        Rd, rp, gap, pobj, dobj, res_d, res_p, rel_gap = _residuals(
            y, S, Z, C_blocks, a_flat, b, c_scale, b_scale)
        mu = gap / ntot
        if res_d <= TOL and res_p <= TOL and rel_gap <= TOL:
            return IpmResult(y, S, Z, pobj, dobj, res_p, res_d, rel_gap, it - 1, True,
                             chol_fallbacks=fallbacks)

        # Nesterov-Todd scaling and Schur complement
        r, rinv, lam, fell = _nt_scaling(S, Z)
        fallbacks += fell
        rinvh = _ct(rinv)
        schur_mat = schur(rinv)
        # W^{-1} Rd W^{-1} contribution, shared by predictor and corrector
        h1 = a_flat @ _as_real(rinvh @ (rinv @ Rd @ rinvh) @ rinv).ravel()

        # every Schur matrix carries the helper's smallest jitter: near a
        # degenerate optimum a plain factor can be singular to working precision
        schur_chol, fell = _chol_pd(schur_mat, jittered=True)
        fallbacks += fell
        schur_linvs = _block_inverses(schur_chol)

        def solve_schur(rhs):
            x = _chol_solve(schur_chol, schur_linvs, rhs)
            # one step of iterative refinement against the unjittered matrix
            # removes the jitter's bias and keeps the last digits of the
            # equality residual from stalling on ill-conditioned systems
            return x + _chol_solve(schur_chol, schur_linvs, rhs - schur_mat @ x)

        def direction(e):
            """Search direction, its NT-scaled parts R^{-1} dS R^{-H} and
            R^H dZ R, and the step lengths to the cone boundary."""
            dy = solve_schur(rp + h1 - a_flat @ _as_real(e).ravel())
            dS = Rd - (dy @ a_flat).view(Rd.dtype).reshape(Rd.shape)
            gs = rinv @ dS @ rinvh
            dZ = _herm(e - rinvh @ gs @ rinv)
            gz = _ct(r) @ dZ @ r
            return (dy, dS, dZ, gs, gz) + _steps_to_boundary(lam, gs, gz)

        # predictor: target 0 complementarity; R^{-H}(-Lam)R^{-1} = -Z
        _dy_a, dS_a, dZ_a, gs_a, gz_a, alpha_s, alpha_z = direction(-Z)
        mu_aff = _inner(Z + alpha_z * dZ_a, S + alpha_s * dS_a) / ntot
        ratio = min(max(mu_aff, 0.0) / max(mu, 1e-300), 1.0)
        sigma = float(np.clip(ratio ** 3, 1e-10, 1.0))

        # corrector with Mehrotra second-order term, in the scaled space
        g = sigma * mu * eye - (lam * lam)[:, :, None] * eye - _herm(gz_a @ gs_a)
        gamma = 2.0 * g / (lam[:, :, None] + lam[:, None, :])
        dy, dS, dZ, _gs, _gz, alpha_s, alpha_z = direction(rinvh @ _herm(gamma) @ rinv)

        frac = min(STEP_FRACTION + 0.01 * min(alpha_s, alpha_z), 0.995)
        step_s = min(1.0, frac * alpha_s)
        step_z = min(1.0, frac * alpha_z)
        if max(step_s, step_z) < 1e-10:
            note = "step collapse"
            break
        y = y + step_s * dy
        S = _herm(S + step_s * dS)
        Z = _herm(Z + step_z * dZ)

    _Rd, _rp, _gap, pobj, dobj, res_d, res_p, rel_gap = _residuals(
        y, S, Z, C_blocks, a_flat, b, c_scale, b_scale)
    converged = res_d <= TOL and res_p <= TOL and rel_gap <= TOL
    if not converged and not note:
        note = "iteration cap exceeded"
    return IpmResult(y, S, Z, pobj, dobj, res_p, res_d, rel_gap, it, converged, note,
                     chol_fallbacks=fallbacks)
