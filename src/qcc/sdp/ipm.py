"""Primal-dual interior-point solver for small dense symmetric SDP blocks.

Solves the inequality-form pair

    maximize    b . y                 minimize    sum_l <C_l, Z_l>
    subject to  S_l = C_l - A_l(y),   subject to  sum_l A_l^*(Z_l) = b,
                S_l >= 0                          Z_l >= 0

with an infeasible start, Nesterov-Todd scaling and a Mehrotra
predictor-corrector step.  Every matrix is dense complex Hermitian and y
is real, so inner products are Re<A, B> = Re Tr(A^H B).  Sizes up to a
few hundred are the design point, so the Schur complement is formed
explicitly as a Gram matrix of scaled constraint blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_ITER = 200
TOL = 1e-9
STEP_FRACTION = 0.98


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


def _chol_pd(x: np.ndarray) -> np.ndarray:
    """Cholesky with escalating jitter; eigenvalue clip as a last resort."""
    scale = max(np.abs(np.diagonal(x)).max(), 1e-300)
    jitter = 0.0
    for _ in range(4):
        try:
            return np.linalg.cholesky(x + jitter * np.eye(x.shape[0]))
        except np.linalg.LinAlgError:
            jitter = max(jitter * 100.0, 1e-14 * scale)
    w, v = np.linalg.eigh(_herm(x))
    w = np.maximum(w, 1e-14 * max(w.max(), 1e-300))
    return np.linalg.cholesky((v * w) @ v.conj().T)


def _nt_scaling(s: np.ndarray, z: np.ndarray):
    """Nesterov-Todd scaling point: returns (R, Rinv, lam) with
    R^H Z R = R^{-1} S R^{-H} = diag(lam) and W^{-1} = Rinv^H Rinv."""
    ls = _chol_pd(s)
    lz = _chol_pd(z)
    u, sig, vh = np.linalg.svd(lz.conj().T @ ls)
    sig = np.maximum(sig, 1e-300)
    rinv = (u / np.sqrt(sig)).conj().T @ lz.conj().T
    r = ls @ (vh.conj().T / np.sqrt(sig))
    return r, rinv, sig


def _max_step(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha <= 1 with x + alpha dx still PSD (x assumed PD)."""
    l = _chol_pd(x)
    g = np.linalg.solve(l, dx)
    g = np.linalg.solve(l, g.conj().T).conj().T
    wmin = np.linalg.eigvalsh(_herm(g)).min()
    if wmin >= -1e-14:
        return 1.0
    return min(1.0, -1.0 / wmin)


def solve_ipm(C_blocks, A_blocks, b, max_iter: int = MAX_ITER, tol: float = TOL) -> IpmResult:
    nblocks = len(C_blocks)
    m = b.shape[0]
    sides = [c.shape[0] for c in C_blocks]
    ntot = sum(sides)
    a_flat = [_as_real(a).reshape(m, -1) for a in A_blocks]

    c_scale = max(1.0, max(np.abs(c).max() for c in C_blocks))
    b_scale = max(1.0, np.abs(b).max())

    y = np.zeros(m)
    S = []
    Z = []
    for c, n in zip(C_blocks, sides):
        wmin = np.linalg.eigvalsh(c).min()
        S.append(c + (max(0.0, -wmin) + 0.1 * c_scale + 1.0) * np.eye(n))
        Z.append(np.eye(n, dtype=np.complex128) * (b_scale / ntot))

    # Gram factor of the constraint operator, used to restore dual
    # feasibility after each step
    gram = np.zeros((m, m))
    for l in range(nblocks):
        gram += a_flat[l] @ a_flat[l].T
    gram_chol = np.linalg.cholesky(gram + 1e-14 * np.trace(gram) / m * np.eye(m))

    note = ""
    it = 0
    for it in range(1, max_iter + 1):
        Rd = [C_blocks[l] - np.einsum("i,iab->ab", y, A_blocks[l]) - S[l] for l in range(nblocks)]
        az = np.zeros(m)
        for l in range(nblocks):
            az += a_flat[l] @ _as_real(Z[l]).ravel()
        rp = b - az
        gap = sum(_inner(Z[l], S[l]) for l in range(nblocks))
        mu = gap / ntot
        pobj = float(b @ y)
        dobj = float(sum(_inner(C_blocks[l], Z[l]) for l in range(nblocks)))

        res_d = max(np.abs(Rd[l]).max() for l in range(nblocks)) / c_scale
        res_p = np.abs(rp).max() / b_scale
        rel_gap = max(abs(pobj - dobj), abs(gap)) / (1.0 + abs(pobj) + abs(dobj))
        if res_d <= tol and res_p <= tol and rel_gap <= tol:
            return IpmResult(y, S, Z, pobj, dobj, res_p, res_d, rel_gap, it - 1, True)

        # Nesterov-Todd scaling and Schur complement (a Gram matrix)
        rs, rinvs, lams = [], [], []
        schur = np.zeros((m, m))
        for l in range(nblocks):
            r, rinv, lam = _nt_scaling(S[l], Z[l])
            rs.append(r)
            rinvs.append(rinv)
            lams.append(lam)
            bf = _as_real(rinv @ A_blocks[l] @ rinv.conj().T).reshape(m, -1)
            schur += bf @ bf.T
        schur_chol = None
        jitter = 0.0
        for _ in range(4):
            try:
                schur_chol = np.linalg.cholesky(schur + jitter * np.eye(m))
                break
            except np.linalg.LinAlgError:
                jitter = max(100.0 * jitter, 1e-14 * np.trace(schur) / m)

        def solve_schur(rhs):
            if schur_chol is None:
                return np.linalg.lstsq(schur, rhs, rcond=None)[0]
            u = np.linalg.solve(schur_chol, rhs)
            x = np.linalg.solve(schur_chol.T, u)
            # one step of iterative refinement keeps the last digits of the
            # equality residual from stalling on ill-conditioned systems
            r = rhs - schur @ x
            u = np.linalg.solve(schur_chol, r)
            return x + np.linalg.solve(schur_chol.T, u)

        # W^{-1} Rd W^{-1} contribution, shared by predictor and corrector
        f_blocks = [rinvs[l].conj().T @ (rinvs[l] @ Rd[l] @ rinvs[l].conj().T) @ rinvs[l]
                    for l in range(nblocks)]
        h1 = np.zeros(m)
        for l in range(nblocks):
            h1 += a_flat[l] @ _as_real(f_blocks[l]).ravel()

        def direction(e_blocks):
            rhs = rp + h1.copy()
            for l in range(nblocks):
                rhs -= a_flat[l] @ _as_real(e_blocks[l]).ravel()
            dy = solve_schur(rhs)
            dS = [Rd[l] - np.einsum("i,iab->ab", dy, A_blocks[l]) for l in range(nblocks)]
            dZ = []
            for l in range(nblocks):
                wds = rinvs[l].conj().T @ (rinvs[l] @ dS[l] @ rinvs[l].conj().T) @ rinvs[l]
                dZ.append(_herm(e_blocks[l] - wds))
            return dy, dS, dZ

        # predictor: target 0 complementarity; R^{-H}(-Lam)R^{-1} = -Z
        e_pred = [-Z[l] for l in range(nblocks)]
        _dy_a, dS_a, dZ_a = direction(e_pred)
        alpha_s = min(_max_step(S[l], dS_a[l]) for l in range(nblocks))
        alpha_z = min(_max_step(Z[l], dZ_a[l]) for l in range(nblocks))
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
            rinv = rinvs[l]
            r = rs[l]
            dzt = r.conj().T @ dZ_a[l] @ r
            dst = rinv @ dS_a[l] @ rinv.conj().T
            h = _herm(dzt @ dst)
            g = sigma * mu * np.eye(len(lam)) - np.diag(lam * lam) - h
            gamma = 2.0 * g / np.add.outer(lam, lam)
            e_corr.append(rinv.conj().T @ _herm(gamma) @ rinv)
        dy, dS, dZ = direction(e_corr)

        alpha_s = min(_max_step(S[l], dS[l]) for l in range(nblocks))
        alpha_z = min(_max_step(Z[l], dZ[l]) for l in range(nblocks))
        if min(alpha_s, alpha_z) < 1e-8:
            # corrector overshoot at tiny mu; retry with a plain centering
            # direction before giving up
            e_cent = []
            for l in range(nblocks):
                lam = lams[l]
                rinv = rinvs[l]
                gmat = 0.8 * mu * np.eye(len(lam)) - np.diag(lam * lam)
                gamma = 2.0 * gmat / np.add.outer(lam, lam)
                e_cent.append(rinv.conj().T @ _herm(gamma) @ rinv)
            dy, dS, dZ = direction(e_cent)
            alpha_s = min(_max_step(S[l], dS[l]) for l in range(nblocks))
            alpha_z = min(_max_step(Z[l], dZ[l]) for l in range(nblocks))
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
        # endgame feasibility restoration on both sides, guarded so it
        # never costs positive definiteness: the equalities are linear, so
        # near the optimum the minimum-norm corrections remove the roundoff
        # the scaled steps leave behind
        azn = np.zeros(m)
        for l in range(nblocks):
            azn += a_flat[l] @ _as_real(Z[l]).ravel()
        rpn = b - azn
        rp_max = np.abs(rpn).max()
        if 1e-13 * b_scale < rp_max < 1e-7 * b_scale:
            u = np.linalg.solve(gram_chol, rpn)
            w = np.linalg.solve(gram_chol.T, u)
            cand = [_herm(Z[l] + np.einsum("i,iab->ab", w, A_blocks[l])) for l in range(nblocks)]
            if all(np.linalg.eigvalsh(c).min() > 0 for c in cand):
                Z = cand
        rd_max = max(
            np.abs(C_blocks[l] - np.einsum("i,iab->ab", y, A_blocks[l]) - S[l]).max()
            for l in range(nblocks)
        )
        if 1e-14 * c_scale < rd_max < 1e-7 * c_scale:
            cand = [_herm(C_blocks[l] - np.einsum("i,iab->ab", y, A_blocks[l]))
                    for l in range(nblocks)]
            if all(np.linalg.eigvalsh(c).min() > 0 for c in cand):
                S = cand

    Rd = [C_blocks[l] - np.einsum("i,iab->ab", y, A_blocks[l]) - S[l] for l in range(nblocks)]
    az = np.zeros(m)
    for l in range(nblocks):
        az += a_flat[l] @ _as_real(Z[l]).ravel()
    rp = b - az
    gap = sum(_inner(Z[l], S[l]) for l in range(nblocks))
    pobj = float(b @ y)
    dobj = float(sum(_inner(C_blocks[l], Z[l]) for l in range(nblocks)))
    res_d = max(np.abs(Rd[l]).max() for l in range(nblocks)) / c_scale
    res_p = np.abs(rp).max() / b_scale
    rel_gap = max(abs(pobj - dobj), abs(gap)) / (1.0 + abs(pobj) + abs(dobj))
    converged = res_d <= tol and res_p <= tol and rel_gap <= tol
    if not converged and not note:
        note = "iteration cap exceeded"
    return IpmResult(y, S, Z, pobj, dobj, res_p, res_d, rel_gap, it, converged, note)
