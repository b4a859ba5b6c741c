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
side).  S and Z are held as one (2, blocks, n, n) stack, and so are a
direction (dS, dZ) and its NT-scaled parts.  So A(y), A^*(Z), the
residuals, the scaled products, the NT Cholesky factors of S and Z,
both step lengths and the update are one numpy call each over the
whole stack; a stack that does not factor goes through the Cholesky
helper one matrix at a time, from a plain first attempt, each counting
its own fallback.  The solve starts from y = 0, the compile's Z0 and
its S0, both from one start rule (``start_slack``): each block M is
shifted into the cone as M + (max(0, -lmin(M)) + START_MARGIN
max(1, max |M|)) I, so the start sits at the data's own scale.  S0 is
the rule on C, and in standard form depends on the program's structure
alone and is cached with it; the standard form's Z0 is the rule on the
particular solution, which keeps A^*(Z0) = b, and the null-space form's
Z0 is I / (blocks n).  The programs' data (Choi matrices and states)
has entries at most 1, so a start START_MARGIN inside the cone is close
to where their optima lie (a converged |t| of 0.028 in the median of
the qubit decisions); 0.03 was picked over 0.1 and 0.01 on held-out
decide pools (CHANGES.md holds the table).
At qubit size every numpy call costs more in fixed overhead than in
arithmetic, so the loop makes as few as the arithmetic allows: A^*(Z)
of the residual serves the predictor (A^*(-Z) is its negation), the
step-length scaling is formed once per iteration, the corrector's
right-hand side is one diagonal less P + P^H for P = gz gs (2 herm(P)),
and ``eigvalsh`` reads one triangle of the scaled steps, unsymmetrized.
The Schur complement has the side m of y, which the compile sets: the
constraint dimension less one for standard-form programs, the free
directions plus one otherwise (see ``problem``).  Sizes up to a few
hundred are the design point, so it is formed explicitly, by the
``schur`` callable the compile supplies, and factored at m^3 / 3 per
iteration.  For standard-form programs it is formed from the
partial-trace structure of the constraints as G M(V) G^T: one product
of two permuted copies of the NT-scaled block per pair of constraints,
a gather into the constraint rows and two products with G.  At complex
qutrit compat (m = 152) that costs about a sixth of the dense Gram form
(0.55 against 3.1 ms at one BLAS thread); at qubit size its fixed
overhead makes it costlier than the dense form: 23 against 9 us on a
real program (m = 16), 37 against 32 us on a complex one (m = 27).  For
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
products with those inverses and the off-diagonal panels.  The solution
grows by one block per step, so a factor of one block (m <= 64, every
qubit program) is solved with two matrix-vector products.  numpy
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
# the start's least eigenvalue per unit of its block's scale (``start_slack``)
START_MARGIN = 0.03
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
    return (x.conj() if x.dtype.kind == "c" else x).swapaxes(-1, -2)


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


def start_slack(blocks: np.ndarray) -> np.ndarray:
    """The solver's start rule: each block M of the (blocks, n, n) stack
    shifted into the cone, M + (max(0, -lmin(M)) + START_MARGIN
    max(1, max |M|)) I, so its least eigenvalue is at least START_MARGIN
    times its scale.  The compile supplies the starting S of both forms
    as the rule on C (``CompiledSdp.S0``), and the standard form's Z0 as
    the rule on its particular solution."""
    scale = np.maximum(1.0, np.abs(blocks).max(axis=(-2, -1)))
    wmin = np.linalg.eigvalsh(blocks)[:, 0]
    shift = np.maximum(0.0, -wmin) + START_MARGIN * scale
    return blocks + shift[:, None, None] * np.eye(blocks.shape[-1])


def _chol_pd(x: np.ndarray, jittered: bool = False) -> tuple[np.ndarray, bool]:
    """Cholesky with escalating jitter; eigenvalue clip as a last resort.

    With ``jittered`` the first attempt already carries the smallest
    jitter, 1e-14 times the largest diagonal entry.  Returns the factor
    and whether it needed more than its first attempt: a larger jitter
    or the clip.
    """
    scale = max(abs(x.diagonal()).max(), 1e-300)
    jitter = 1e-14 * scale if jittered else 0.0
    for attempt in range(4):
        shifted = np.array(x)
        shifted.reshape(-1)[:: x.shape[0] + 1] += jitter
        try:
            return np.linalg.cholesky(shifted), attempt > 0
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
    (``_block_inverses``).  The solution grows by one block per step,
    so the first block of each sweep is one product with its inverse."""
    x = linvs[0] @ rhs[:CHOL_BLOCK]
    for k in range(1, len(linvs)):
        i = k * CHOL_BLOCK
        j = i + CHOL_BLOCK
        x = np.concatenate([x, linvs[k] @ (rhs[i:j] - l[i:j, :i] @ x)])
    last = (len(linvs) - 1) * CHOL_BLOCK
    z = linvs[-1].T @ x[last:]
    for k in range(len(linvs) - 2, -1, -1):
        i = k * CHOL_BLOCK
        j = i + CHOL_BLOCK
        z = np.concatenate([linvs[k].T @ (x[i:j] - l[j:, i:j].T @ z), z])
    return z


def _nt_scaling(sz: np.ndarray):
    """Nesterov-Todd scaling points of the stacked blocks ``sz`` = (S, Z),
    a (2, blocks, n, n) array: returns (R, Rinv, lam, fallbacks) with
    R^H Z R = R^{-1} S R^{-H} = diag(lam) and W^{-1} = Rinv^H Rinv on each
    block, and the number of the factorizations that fell back.

    One Cholesky call factors the whole (S, Z) stack; only when it fails
    does each matrix go through ``_chol_pd``, which counts its own
    fallback.  LAPACK factors a stack matrix by matrix, so the factors
    are the same either way.  When the SVD of Lz^H Ls does not converge
    (gesdd failed on a well-conditioned qubit k = 6 iterate), the factors
    come from the SVD of its conjugate transpose.
    """
    try:
        factors, fell = np.linalg.cholesky(sz), 0
    except np.linalg.LinAlgError:
        pairs = [_chol_pd(x) for x in sz.reshape(-1, *sz.shape[-2:])]
        factors = np.stack([l for l, _ in pairs]).reshape(sz.shape)
        fell = sum(f for _, f in pairs)
    ls, lz = factors
    lzh = _ct(lz)
    m = lzh @ ls
    try:
        u, sig, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError:  # gesdd can fail where it converges on M^H
        v, sig, uh = np.linalg.svd(_ct(m))
        u, vh = _ct(uh), _ct(v)
    sig = np.maximum(sig, 1e-300)
    root = np.sqrt(sig)[..., None, :]
    rinv = _ct(u / root) @ lzh
    r = ls @ (_ct(vh) / root)
    return r, rinv, sig, fell


def _steps_to_boundary(scale: np.ndarray, g: np.ndarray) -> list:
    """Largest alpha <= 1 with diag(lam) + alpha g still PSD on every
    block, for g = gs and for g = gz, the two halves of the
    (2, blocks, n, n) stack ``g``, from one ``eigvalsh`` over both;
    ``scale`` is lam^{-1/2} lam^{-1/2}^T on each block.

    With S = R diag(lam) R^H and Z = R^{-H} diag(lam) R^{-1}, a step dS
    keeps S PSD exactly when gs = R^{-1} dS R^{-H} does here, and dZ
    keeps Z PSD when gz = R^H dZ R does, so the NT factors give both
    step lengths without another factorization.  ``eigvalsh`` reads one
    triangle of each matrix.
    """
    lows = np.linalg.eigvalsh(g * scale)[..., 0].tolist()
    return [1.0 if wmin >= -1e-14 else min(1.0, -1.0 / wmin) for wmin in map(min, lows)]


def _corrector_rhs(lam: np.ndarray, gs: np.ndarray, gz: np.ndarray, sigma_mu: float,
                   eye: np.ndarray) -> np.ndarray:
    """The corrector's right-hand side in the scaled space,
    gamma = 2 g / (lam_i + lam_j) with the Mehrotra target
    g = sigma mu I - diag(lam)^2 - herm(gz gs) of the predictor's scaled
    steps ``gs`` and ``gz``.  2 herm(P) = P + P^H exactly, so 2 g is
    formed as one diagonal less that sum."""
    p = gz @ gs
    twice_g = (2.0 * (sigma_mu - lam * lam))[..., None] * eye - (p + _ct(p))
    return twice_g / (lam[..., :, None] + lam[..., None, :])


def _residuals(y, sz, C, a_flat, b, c_scale, b_scale):
    """Dual and primal residuals, A^*(Z), gap and both objectives at one
    point ``sz`` = (S, Z), a contiguous (2, blocks, n, n) stack."""
    S, Z = sz
    Rd = C - (y @ a_flat).view(C.dtype).reshape(C.shape) - S  # C - A(y) - S
    az = a_flat @ Z.view(np.float64).ravel()
    rp = b - az  # b - A^*(Z)
    gap = _inner(Z, S)
    pobj = float(b @ y)
    dobj = _inner(C, Z)
    res_d = np.abs(Rd).max() / c_scale
    res_p = np.abs(rp).max() / b_scale
    rel_gap = max(abs(pobj - dobj), abs(gap)) / (1.0 + abs(pobj) + abs(dobj))
    return Rd, rp, az, gap, pobj, dobj, res_d, res_p, rel_gap


def solve_ipm(C_blocks, A_blocks, b, S0, Z0, schur, stop=None) -> IpmResult:
    """Solve the pair of the module docstring from y = 0, S = ``S0`` and
    Z = ``Z0``, to the residual and gap target ``TOL`` in at most
    ``MAX_ITER`` iterations, both read at call time.

    ``C_blocks``, ``S0`` and ``Z0`` are (blocks, n, n), with ``S0`` the
    ``start_slack`` of ``C_blocks``, and ``A_blocks`` is (m, blocks, n, n).
    ``schur(rinvs)`` returns the Schur matrix Re Tr(A_i V A_j V), summed
    over the blocks, at the inverse NT scalings V = Rinv^H Rinv of the
    (blocks, n, n) stack ``rinvs``.

    ``stop``, when given, is called once per iteration on the iterate
    that misses ``TOL``, as an unconverged result, before the step; the
    first iterate for which it returns true ends the solve, and is
    returned with ``converged`` false and the note "stopped at a
    certified iterate".  ``sdp.solve`` passes one without ``optimum``.
    """
    m = b.shape[0]
    nblocks, n = C_blocks.shape[:2]
    ntot = nblocks * n
    eye = np.eye(n)
    a_flat = _as_real(A_blocks).reshape(m, -1)
    dtype, shape = C_blocks.dtype, C_blocks.shape

    c_scale = max(1.0, np.abs(C_blocks).max())
    b_scale = max(1.0, np.abs(b).max())

    y = np.zeros(m)
    sz = np.stack([S0, Z0])  # S and Z, stepped as one stack
    d = np.empty_like(sz)  # a direction (dS, dZ)
    g = np.empty_like(sz)  # its NT-scaled parts (R^{-1} dS R^{-H}, R^H dZ R)
    dS, dZ = d
    gs, gz = g

    fallbacks = 0
    note = ""
    it = 0
    for it in range(1, MAX_ITER + 1):
        Rd, rp, az, gap, pobj, dobj, res_d, res_p, rel_gap = _residuals(
            y, sz, C_blocks, a_flat, b, c_scale, b_scale)
        mu = gap / ntot
        if res_d <= TOL and res_p <= TOL and rel_gap <= TOL:
            return IpmResult(y, sz[0], sz[1], pobj, dobj, res_p, res_d, rel_gap, it - 1, True,
                             chol_fallbacks=fallbacks)
        if stop is not None:
            here = IpmResult(y, sz[0], sz[1], pobj, dobj, res_p, res_d, rel_gap, it - 1, False,
                             "stopped at a certified iterate", fallbacks)
            if stop(here):
                return here

        # Nesterov-Todd scaling and Schur complement
        r, rinv, lam, fell = _nt_scaling(sz)
        fallbacks += fell
        rinvh, rh = _ct(rinv), _ct(r)
        isq = 1.0 / np.sqrt(lam)
        scale = isq[..., :, None] * isq[..., None, :]
        schur_mat = schur(rinv)
        # W^{-1} Rd W^{-1} contribution, shared by predictor and corrector
        rp_h1 = rp + a_flat @ (rinvh @ (rinv @ Rd @ rinvh) @ rinv).view(np.float64).ravel()

        # every Schur matrix carries the helper's smallest jitter: near a
        # degenerate optimum a plain factor can be singular to working precision
        schur_chol, fell = _chol_pd(schur_mat, jittered=True)
        fallbacks += fell
        schur_linvs = _block_inverses(schur_chol)

        def direction(e, rhs):
            """Search direction dy for the target ``e`` and the right-hand
            side ``rhs`` = rp + h1 - A^*(e), with (dS, dZ) in ``d`` and
            their NT-scaled parts R^{-1} dS R^{-H} and R^H dZ R in ``g``,
            and the step lengths to the cone boundary."""
            dy = _chol_solve(schur_chol, schur_linvs, rhs)
            # one step of iterative refinement against the unjittered matrix
            # removes the jitter's bias and keeps the last digits of the
            # equality residual from stalling on ill-conditioned systems
            dy = dy + _chol_solve(schur_chol, schur_linvs, rhs - schur_mat @ dy)
            np.subtract(Rd, (dy @ a_flat).view(dtype).reshape(shape), out=dS)
            np.matmul(rinv @ dS, rinvh, out=gs)
            dz = e - rinvh @ gs @ rinv
            np.add(dz, _ct(dz), out=dZ)
            np.divide(dZ, 2, out=dZ)
            np.matmul(rh @ dZ, r, out=gz)
            return dy, _steps_to_boundary(scale, g)

        # predictor: target 0 complementarity; R^{-H}(-Lam)R^{-1} = -Z, and
        # A^*(-Z) is -A^*(Z), the residual's product
        S, Z = sz
        _dy, (alpha_s, alpha_z) = direction(-Z, rp_h1 + az)
        mu_aff = _inner(Z + alpha_z * dZ, S + alpha_s * dS) / ntot
        ratio = min(max(mu_aff, 0.0) / max(mu, 1e-300), 1.0)
        sigma = min(max(ratio ** 3, 1e-10), 1.0)

        # corrector with Mehrotra second-order term, in the scaled space
        e = rinvh @ _corrector_rhs(lam, gs, gz, sigma * mu, eye) @ rinv
        dy, (alpha_s, alpha_z) = direction(e, rp_h1 - a_flat @ e.view(np.float64).ravel())

        frac = min(STEP_FRACTION + 0.01 * min(alpha_s, alpha_z), 0.995)
        step_s = min(1.0, frac * alpha_s)
        step_z = min(1.0, frac * alpha_z)
        if max(step_s, step_z) < 1e-10:
            note = "step collapse"
            break
        y = y + step_s * dy
        sz = _herm(sz + np.array([step_s, step_z]).reshape(2, 1, 1, 1) * d)

    _Rd, _rp, _az, _gap, pobj, dobj, res_d, res_p, rel_gap = _residuals(
        y, sz, C_blocks, a_flat, b, c_scale, b_scale)
    converged = res_d <= TOL and res_p <= TOL and rel_gap <= TOL
    if not converged and not note:
        note = "iteration cap exceeded"
    return IpmResult(y, sz[0], sz[1], pobj, dobj, res_p, res_d, rel_gap, it, converged, note,
                     chol_fallbacks=fallbacks)
