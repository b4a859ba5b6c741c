"""Primal-dual interior-point solver for small dense symmetric SDP blocks.

Solves the inequality-form pair

    maximize    b . y                 minimize    sum_l <C_l, Z_l>
    subject to  S_l = C_l - A_l(y),   subject to  sum_l A_l^*(Z_l) = b,
                S_l >= 0                          Z_l >= 0

with an infeasible start, Nesterov-Todd scaling and a Mehrotra
predictor-corrector step.  Every matrix is dense complex Hermitian and y
is real, so inner products are Re<A, B> = Re Tr(A^H B); A and A^* act
as real matrix products on (re, im) views of the constraint blocks.
The Schur complement has the side m of y, which the compile sets: the
constraint dimension less one for standard-form programs, the free
directions plus one otherwise (see ``problem``).  Sizes up to a few
hundred are the design point, so it is formed explicitly, by the
``schur`` callable the compile supplies, and factored at m^3 / 3 per
iteration.  For standard-form programs it is formed from the
partial-trace structure of the constraints as G M(V) G^T: a few
products of the NT-scaled block with itself, a gather into the
constraint rows and two products with G: about 1.2 ms of a 6.5 ms
qutrit compat iteration (m = 152, 27 x 27 blocks, one BLAS thread of a
2-core VM), where the dense form takes 4.5 ms.  For null-space programs
it is the Gram matrix of the scaled constraint blocks, m n^3 to form.
The NT factors of each iteration also give its step lengths, and every
Cholesky factorization goes through one jittered helper, which counts
the factorizations that needed jitter or an eigenvalue clip.  Each
iteration takes one Newton step and nothing repairs the iterate after
it: the infeasible-start step already shrinks each equality residual
by the factor (1 - step) of its own step length.

The Schur system is solved on its Cholesky factor L by block
substitution, forward through L and back through L^T: each 64 x 64
diagonal block of L is inverted once per factor (``_block_inverses``),
and every solve with that factor, up to four per iteration, is then
matrix products with those inverses and the off-diagonal panels.
numpy exposes no triangular solve, and a general solve on a block runs
an LU of it on every call: 24 LUs per qutrit iteration (m = 152) where
three inverses now serve.  The Schur matrix itself is never inverted.
Solving with the inverse Schur matrix L^-T L^-1 ends a qutrit Jordan
solve in a step collapse: near the optimum the Schur matrix reaches
condition numbers of 1e13 and beyond (1e19-1e21 in the last qutrit
iterations), and forming it would cost an LU with m right-hand sides.
The block inverses keep the decisions of substitution by LU solves:
on 162 decides (54 qubit and qutrit pairs in the compat, Jordan and PPT
modes) verdicts, iteration counts and fallback counts are unchanged and
the optimal values move by at most 3.8e-12, and each solve agrees with
two general solves on the whole factor within 1e-12, relative, up to
Schur condition numbers of 1e16.
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
    S_blocks: list
    Z_blocks: list
    pobj: float
    dobj: float
    res_primal: float
    res_dual: float
    rel_gap: float
    iterations: int
    converged: bool
    note: str = ""
    chol_fallbacks: int = 0  # factorizations that needed jitter or the eigenvalue clip


def _herm(x):
    return (x + x.conj().T) / 2


def _as_real(x: np.ndarray) -> np.ndarray:
    """View complex entries as interleaved (re, im) floats.

    The dot product of two such views is Re<A, B>, so the Schur matrix
    Re(conj(B) B^T) of a stack of scaled blocks is one real Gram product.
    """
    return np.ascontiguousarray(x, dtype=np.complex128).view(np.float64)


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, b).real)


def _chol_pd(x: np.ndarray) -> tuple[np.ndarray, bool]:
    """Cholesky with escalating jitter; eigenvalue clip as a last resort.

    Returns the factor and whether the plain factorization failed.
    """
    scale = max(np.abs(np.diagonal(x)).max(), 1e-300)
    jitter = 0.0
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


def _nt_scaling(s: np.ndarray, z: np.ndarray):
    """Nesterov-Todd scaling point: returns (R, Rinv, lam, fallbacks) with
    R^H Z R = R^{-1} S R^{-H} = diag(lam) and W^{-1} = Rinv^H Rinv, and
    the number of the two factorizations that fell back."""
    ls, fell_s = _chol_pd(s)
    lz, fell_z = _chol_pd(z)
    u, sig, vh = np.linalg.svd(lz.conj().T @ ls)
    sig = np.maximum(sig, 1e-300)
    rinv = (u / np.sqrt(sig)).conj().T @ lz.conj().T
    r = ls @ (vh.conj().T / np.sqrt(sig))
    return r, rinv, sig, fell_s + fell_z


def _step_to_boundary(lam: np.ndarray, g: np.ndarray) -> float:
    """Largest alpha <= 1 with diag(lam) + alpha g still PSD.

    With S = R diag(lam) R^H and Z = R^{-H} diag(lam) R^{-1}, a step dS
    keeps S PSD exactly when g = R^{-1} dS R^{-H} does here, and dZ keeps
    Z PSD when g = R^H dZ R does, so the NT factors give both step
    lengths without another factorization.
    """
    isq = 1.0 / np.sqrt(lam)
    wmin = np.linalg.eigvalsh(_herm(g) * np.outer(isq, isq)).min()
    if wmin >= -1e-14:
        return 1.0
    return min(1.0, -1.0 / wmin)


def _apply_a(y: np.ndarray, a_flat: list, sides: list) -> list:
    """A(y) = sum_i y_i A_i, one block per entry."""
    return [(y @ a).view(np.complex128).reshape(n, n) for a, n in zip(a_flat, sides)]


def _apply_adj(blocks: list, a_flat: list) -> np.ndarray:
    """A^*(Z) = (sum_l Re<A_{l,i}, Z_l>)_i."""
    return sum(a @ _as_real(z).ravel() for a, z in zip(a_flat, blocks))


def _residuals(y, S, Z, C_blocks, a_flat, b, sides, c_scale, b_scale):
    """Dual and primal residuals, gap and both objectives at one point."""
    Rd = [c - ay - s for c, ay, s in zip(C_blocks, _apply_a(y, a_flat, sides), S)]
    rp = b - _apply_adj(Z, a_flat)
    gap = sum(_inner(z, s) for z, s in zip(Z, S))
    pobj = float(b @ y)
    dobj = float(sum(_inner(c, z) for c, z in zip(C_blocks, Z)))
    res_d = max(np.abs(r).max() for r in Rd) / c_scale
    res_p = np.abs(rp).max() / b_scale
    rel_gap = max(abs(pobj - dobj), abs(gap)) / (1.0 + abs(pobj) + abs(dobj))
    return Rd, rp, gap, pobj, dobj, res_d, res_p, rel_gap


def solve_ipm(C_blocks, A_blocks, b, Z0, schur) -> IpmResult:
    """Solve the pair of the module docstring from y = 0, S = C shifted
    into the cone and Z = ``Z0``, to the residual and gap target ``TOL``
    in at most ``MAX_ITER`` iterations, both read at call time.

    ``schur(rinvs)`` returns the Schur matrix Re Tr(A_i V A_j V), summed
    over the blocks, at the inverse NT scalings V = Rinv^H Rinv.
    """
    nblocks = len(C_blocks)
    m = b.shape[0]
    sides = [c.shape[0] for c in C_blocks]
    ntot = sum(sides)
    a_flat = [_as_real(a).reshape(m, -1) for a in A_blocks]

    c_scale = max(1.0, max(np.abs(c).max() for c in C_blocks))
    b_scale = max(1.0, np.abs(b).max())

    y = np.zeros(m)
    S = []
    for c, n in zip(C_blocks, sides):
        wmin = np.linalg.eigvalsh(c).min()
        S.append(c + (max(0.0, -wmin) + 0.1 * c_scale + 1.0) * np.eye(n))
    Z = list(Z0)

    fallbacks = 0
    note = ""
    it = 0
    for it in range(1, MAX_ITER + 1):
        Rd, rp, gap, pobj, dobj, res_d, res_p, rel_gap = _residuals(
            y, S, Z, C_blocks, a_flat, b, sides, c_scale, b_scale)
        mu = gap / ntot
        if res_d <= TOL and res_p <= TOL and rel_gap <= TOL:
            return IpmResult(y, S, Z, pobj, dobj, res_p, res_d, rel_gap, it - 1, True,
                             chol_fallbacks=fallbacks)

        # Nesterov-Todd scaling and Schur complement
        rs, rinvs, lams = [], [], []
        for l in range(nblocks):
            r, rinv, lam, fell = _nt_scaling(S[l], Z[l])
            fallbacks += fell
            rs.append(r)
            rinvs.append(rinv)
            lams.append(lam)
        schur_mat = schur(rinvs)
        schur_chol, fell = _chol_pd(schur_mat)
        fallbacks += fell
        schur_linvs = _block_inverses(schur_chol)

        def solve_schur(rhs):
            x = _chol_solve(schur_chol, schur_linvs, rhs)
            # one step of iterative refinement keeps the last digits of the
            # equality residual from stalling on ill-conditioned systems
            return x + _chol_solve(schur_chol, schur_linvs, rhs - schur_mat @ x)

        # W^{-1} Rd W^{-1} contribution, shared by predictor and corrector
        f_blocks = [rinvs[l].conj().T @ (rinvs[l] @ Rd[l] @ rinvs[l].conj().T) @ rinvs[l]
                    for l in range(nblocks)]
        h1 = _apply_adj(f_blocks, a_flat)

        def direction(e_blocks):
            """Search direction, its NT-scaled parts R^{-1} dS R^{-H} and
            R^H dZ R, and the step lengths to the cone boundary."""
            dy = solve_schur(rp + h1 - _apply_adj(e_blocks, a_flat))
            dS = [rd - ady for rd, ady in zip(Rd, _apply_a(dy, a_flat, sides))]
            dZ, gs, gz = [], [], []
            for l in range(nblocks):
                rinv = rinvs[l]
                g_s = rinv @ dS[l] @ rinv.conj().T
                dZ.append(_herm(e_blocks[l] - rinv.conj().T @ g_s @ rinv))
                gs.append(g_s)
                gz.append(rs[l].conj().T @ dZ[l] @ rs[l])
            alpha_s = min(_step_to_boundary(lam, g) for lam, g in zip(lams, gs))
            alpha_z = min(_step_to_boundary(lam, g) for lam, g in zip(lams, gz))
            return dy, dS, dZ, gs, gz, alpha_s, alpha_z

        # predictor: target 0 complementarity; R^{-H}(-Lam)R^{-1} = -Z
        _dy_a, dS_a, dZ_a, gs_a, gz_a, alpha_s, alpha_z = direction([-z for z in Z])
        mu_aff = sum(
            _inner(Z[l] + alpha_z * dZ_a[l], S[l] + alpha_s * dS_a[l])
            for l in range(nblocks)
        ) / ntot
        ratio = min(max(mu_aff, 0.0) / max(mu, 1e-300), 1.0)
        sigma = float(np.clip(ratio ** 3, 1e-10, 1.0))

        # corrector with Mehrotra second-order term, in the scaled space
        e_corr = []
        for l in range(nblocks):
            lam = lams[l]
            h = _herm(gz_a[l] @ gs_a[l])
            g = sigma * mu * np.eye(len(lam)) - np.diag(lam * lam) - h
            gamma = 2.0 * g / np.add.outer(lam, lam)
            e_corr.append(rinvs[l].conj().T @ _herm(gamma) @ rinvs[l])
        dy, dS, dZ, _gs, _gz, alpha_s, alpha_z = direction(e_corr)

        frac = min(STEP_FRACTION + 0.01 * min(alpha_s, alpha_z), 0.995)
        step_s = min(1.0, frac * alpha_s)
        step_z = min(1.0, frac * alpha_z)
        if max(step_s, step_z) < 1e-10:
            note = "step collapse"
            break
        y = y + step_s * dy
        for l in range(nblocks):
            S[l] = _herm(S[l] + step_s * dS[l])
            Z[l] = _herm(Z[l] + step_z * dZ[l])

    _Rd, _rp, _gap, pobj, dobj, res_d, res_p, rel_gap = _residuals(
        y, S, Z, C_blocks, a_flat, b, sides, c_scale, b_scale)
    converged = res_d <= TOL and res_p <= TOL and rel_gap <= TOL
    if not converged and not note:
        note = "iteration cap exceeded"
    return IpmResult(y, S, Z, pobj, dobj, res_p, res_d, rel_gap, it, converged, note,
                     chol_fallbacks=fallbacks)
