"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances and runtime bounds are pinned here.
"""

import time

import numpy as np

from qcc import reference, sdp
from qcc.analytic import depol_pair_compatible, xi_mp_threshold, xi_self_threshold
from qcc.channels import (
    Channel,
    LinearMapRep,
    constant_channel,
    identity_channel,
    measure_prepare_channel,
    measurement_channel,
    mix_channels,
    partial_depolarizing_channel,
    pinching_channel,
    compose,
    tensor,
    validate,
    xi_channel,
)
from qcc.jordan import GenJordanOperator, a_jp, gen_jordan, jordan_channel
from qcc.linalg import (
    HermitianMatrix,
    TensorShape,
    embed_identity_array,
    ptrace_array,
    ptranspose_array,
    support_projection_absorbs,
)
from qcc.marginal import compatibilizer_from_joint_state, joint_state_from_compatibilizer, states_to_channels
from qcc.rand import (
    random_channel,
    random_density,
    random_hermitian,
    random_invertible_channel,
    random_mp_channel,
    random_psd,
    random_pvm,
    random_state_pair,
)
from qcc.sdp.decide import decide
from qcc.witness import no_broadcast_witness, verify_witness


def report(num: int, ok: bool, elapsed: float, detail: str):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) {detail}")
    assert ok, detail


def test_acceptance_1_reference_example_replay():
    t0 = time.time()
    f, g = reference.channel_pair()
    comp = reference.compatibilizer()
    dims = (2, 2, 2)

    # (a) printed pair and partial transposes PSD
    mins = [
        np.linalg.eigvalsh(f.choi.array).min(),
        np.linalg.eigvalsh(g.choi.array).min(),
        np.linalg.eigvalsh(ptranspose_array(f.choi.array, (2, 2), 0)).min(),
        np.linalg.eigvalsh(ptranspose_array(g.choi.array, (2, 2), 0)).min(),
    ]
    ok_a = min(mins) >= -1e-12

    # (b) exact marginal equations
    jc = comp.choi.array
    ok_b = (
        np.abs(ptrace_array(jc, dims, [2]) - f.choi.array).max() == 0.0
        and np.abs(ptrace_array(jc, dims, [1]) - g.choi.array).max() == 0.0
    )

    # (c) four distinct positive doublets summing to 2
    w = np.linalg.eigvalsh(jc)
    pairs = w.reshape(4, 2)
    ok_c = (
        np.abs(pairs[:, 0] - pairs[:, 1]).max() <= 1e-10
        and np.all(np.diff(pairs[:, 0]) > 1e-6)
        and w[0] > 0
        and abs(w.sum() - 2.0) <= 1e-10
    )

    # (d, e) plain program feasible with positive optimum, ppt infeasible
    out_plain = sdp.solve(sdp.build_compat(f, g))
    ok_d = out_plain.status == "Feasible" and out_plain.value > 0
    out_ppt = sdp.solve(sdp.build_compat(f, g, ppt=True))
    ok_e = out_ppt.status == "Infeasible"

    # (f) printed witness: margin -1/2, PSD slack
    rep = verify_witness(reference.ppt_witness(), f, g)
    ok_f = rep.valid and abs(rep.margin + 0.5) <= 1e-12 and rep.min_eig >= -1e-12

    elapsed = time.time() - t0
    ok = all([ok_a, ok_b, ok_c, ok_d, ok_e, ok_f]) and elapsed < 5.0
    report(1, ok, elapsed,
           f"a={ok_a} b={ok_b} c={ok_c} d={ok_d} (alpha={out_plain.value:.4f}) "
           f"e={ok_e} f={ok_f} (margin={rep.margin:.12f})")


def test_acceptance_2_no_broadcasting():
    t0 = time.time()
    ident = identity_channel(2)
    dec = decide(ident, ident)
    ok_verdict = (
        dec.verdict == "Incompatible"
        and dec.witness is not None
        and dec.witness.mode == "plain"
        and verify_witness(dec.witness, ident, ident).valid
    )

    w2 = no_broadcast_witness(2)
    m0 = verify_witness(w2, ident, ident).margin
    othird = partial_depolarizing_channel(1 / 3, 2)
    m13 = verify_witness(w2, othird, othird).margin
    ok_values = abs(m0 + 4 / 3) <= 1e-12 and abs(m13) <= 1e-12

    ok_cross = True
    for d in (2, 3):
        wd = no_broadcast_witness(d)
        idd = identity_channel(d)
        omd = __import__("qcc.channels", fromlist=["depolarizing_channel"]).depolarizing_channel(d)
        a = verify_witness(wd, idd, idd).margin
        b = verify_witness(wd, omd, omd).margin
        crossing = -a / (b - a)
        ok_cross &= abs(crossing - d / (2 * (d + 1))) <= 1e-10

    elapsed = time.time() - t0
    ok = ok_verdict and ok_values and ok_cross and elapsed < 5.0
    report(2, ok, elapsed,
           f"verdict={ok_verdict} pairing(p=0)={m0:.12f} pairing(p=1/3)={m13:.2e} "
           f"crossings={ok_cross}")


def _near_curve(q0, q1, eps=0.005):
    """Does the boundary expression change sign within an eps-box?"""
    vals = []
    for dq0 in (-eps, eps):
        for dq1 in (-eps, eps):
            a = min(max(q0 + dq0, 0.0), 1.0)
            b = min(max(q1 + dq1, 0.0), 1.0)
            vals.append(a + np.sqrt(a * b) + b - 1.0)
    return min(vals) <= 0.0 <= max(vals)


def test_acceptance_3_depolarizing_pair_boundary():
    t0 = time.time()
    grid = np.linspace(0, 1, 41)
    checked = 0
    mismatches = []
    for q0 in grid:
        for q1 in grid:
            if _near_curve(q0, q1):
                continue
            dec = decide(partial_depolarizing_channel(q0, 2),
                         partial_depolarizing_channel(q1, 2))
            expected = "Compatible" if depol_pair_compatible(q0, q1) else "Incompatible"
            if dec.verdict != expected:
                mismatches.append((q0, q1, dec.verdict, expected))
            checked += 1
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 600.0 and checked > 1500
    report(3, ok, elapsed, f"{checked} grid points checked, mismatches: {mismatches[:5]}")


def test_acceptance_4_xi_self_boundary():
    t0 = time.time()
    grid = np.linspace(0, 1, 41)
    step = grid[1] - grid[0]
    worst = 0.0
    for p in grid:
        flip = None
        for q in grid:
            if p + q > 1 + 1e-12:
                break
            out = sdp.solve(sdp.build_compat(xi_channel(p, q), xi_channel(p, q)))
            if out.status == "Feasible":
                flip = q
                break
        assert flip is not None, f"no feasible q found for p={p}"
        worst = max(worst, abs(flip - xi_self_threshold(p)))
    elapsed = time.time() - t0
    ok = worst <= step + 1e-9 and elapsed < 600.0
    report(4, ok, elapsed, f"max |flip - threshold| = {worst:.4f} (one step = {step})")


def test_acceptance_5_k_region_nesting():
    t0 = time.time()
    grid = np.linspace(0, 1, 21)
    regions = {k: set() for k in (2, 3, 4)}
    inconclusive = 0
    for p in grid:
        for q in grid:
            if p + q > 1 + 1e-12:
                continue
            xi = xi_channel(p, q)
            for k in (2, 3, 4):
                out = sdp.solve(sdp.build_k_extension(xi, k))
                if out.status == "Feasible":
                    regions[k].add((round(p, 6), round(q, 6)))
                elif out.status == "Inconclusive":
                    inconclusive += 1
    nested = regions[4] <= regions[3] <= regions[2]
    mp_ok = True
    for p in grid:
        for q in grid:
            if p + q > 1 + 1e-12 or q < xi_mp_threshold(p) - 1e-12:
                continue
            for k in (2, 3, 4):
                mp_ok &= (round(p, 6), round(q, 6)) in regions[k]
    elapsed = time.time() - t0
    ok = nested and mp_ok and inconclusive == 0 and elapsed < 1800.0
    report(5, ok, elapsed,
           f"|R2|={len(regions[2])} |R3|={len(regions[3])} |R4|={len(regions[4])} "
           f"nested={nested} mp_region_covered={mp_ok}")


def test_acceptance_6_jordan_compat_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(20240817)
    inconclusive = 0
    disagreements = 0
    for _ in range(100):
        f = random_invertible_channel(rng, 2)
        g = random_invertible_channel(rng, 2)
        d1 = decide(f, g, "compat")
        d2 = decide(f, g, "jordan")
        if "Inconclusive" in (d1.verdict, d2.verdict):
            inconclusive += 1
        elif d1.verdict != d2.verdict:
            disagreements += 1
    elapsed = time.time() - t0
    ok = disagreements == 0 and inconclusive <= 2 and elapsed < 900.0
    report(6, ok, elapsed,
           f"disagreements={disagreements} inconclusive={inconclusive}/100")


def test_acceptance_7_property_suites():
    t0 = time.time()
    rng = np.random.default_rng(99250731)
    details = []

    # marginal identities of the product of trace-preserving maps (1e-10)
    dims = (2, 2, 2)
    for _ in range(100):
        f = random_channel(rng, 2)
        g = random_channel(rng, 2)
        arr = jordan_channel(f.rep, g.rep).choi.array
        assert np.abs(ptrace_array(arr, dims, [2]) - f.choi.array).max() < 1e-10
        assert np.abs(ptrace_array(arr, dims, [1]) - g.choi.array).max() < 1e-10
    details.append("marginals")

    # bilinearity, factor exchange, composition covariance
    for _ in range(100):
        f1 = random_channel(rng, 2).rep
        f2 = random_channel(rng, 2).rep
        g = random_channel(rng, 2).rep
        al, be = rng.normal(size=2)
        mixed = LinearMapRep.from_choi(al * f1.choi.array + be * f2.choi.array, 2)
        lhs = jordan_channel(mixed, g).choi.array
        rhs = al * jordan_channel(f1, g).choi.array + be * jordan_channel(f2, g).choi.array
        assert np.abs(lhs - rhs).max() < 1e-10
        fg = jordan_channel(f1, g).choi.array.reshape(2, 2, 2, 2, 2, 2)
        gf = jordan_channel(g, f1).choi.array
        assert np.abs(gf - fg.transpose(0, 2, 1, 3, 5, 4).reshape(8, 8)).max() < 1e-10
        psi1 = random_channel(rng, 2).rep
        psi2 = random_channel(rng, 2).rep
        lhs2 = compose(tensor(psi1, psi2), jordan_channel(f1, g)).choi.array
        rhs2 = jordan_channel(compose(psi1, f1), compose(psi2, g)).choi.array
        assert np.abs(lhs2 - rhs2).max() < 1e-9
    details.append("bilinearity/swap/composition")

    # product of generated channels from the element-wise products (1e-10)
    for _ in range(100):
        mp1 = random_mp_channel(rng, 2, 2, 2)
        mp2 = random_mp_channel(rng, 2, 2, 3)
        c1 = measure_prepare_channel(mp1)
        c2 = measure_prepare_channel(mp2)
        prod = jordan_channel(c1.rep, c2.rep).choi.array
        expected = np.zeros_like(prod)
        for m, rho in zip(mp1.povm.effects, mp1.preps):
            for n, sig in zip(mp2.povm.effects, mp2.preps):
                expected += np.kron(np.kron(((m @ n + n @ m) / 2).T, rho), sig)
        assert np.abs(prod - expected).max() < 1e-10
    details.append("mp-product formula")

    # three-way equivalence for projective-measurement channels (1e-7)
    for trial in range(100):
        pvm = random_pvm(rng, 2)
        meas = measurement_channel(pvm)
        pinch = pinching_channel(pvm)
        phi = (random_channel(rng, 2) if trial % 2 == 0
               else Channel(compose(random_channel(rng, 2).rep, pinch.rep)))
        cp = np.linalg.eigvalsh(jordan_channel(phi.rep, meas.rep).choi.array).min() >= -1e-7
        compat = sdp.solve(sdp.build_compat(phi, meas)).status == "Feasible"
        invar = np.abs(compose(phi.rep, pinch.rep).choi.array - phi.choi.array).max() <= 1e-7
        assert cp == compat == invar
    details.append("projective equivalence")

    # state-channel construction round trips, full-rank and rank-deficient
    for trial in range(100):
        rank = None if trial % 2 == 0 else 1
        dx = 2 if trial % 2 == 0 else 3
        sp, joint = random_state_pair(rng, dx, 2, 2, sigma_rank=rank if rank else None)
        comp = compatibilizer_from_joint_state(joint, sp.sigma)
        back = joint_state_from_compatibilizer(comp, sp.sigma)
        assert np.abs(back.array - joint.array).max() < (1e-8 if rank is None else 1e-7)
        f, g = states_to_channels(sp)
        assert validate(f.rep).cp and validate(g.rep).tp
    details.append("state reductions")

    # support absorption (1e-9)
    for i in range(100):
        side, shape = ((4, (2, 2)) if i % 2 == 0 else (8, (2, 4)))
        a = random_psd(rng, side, rank=1 + i % side)
        assert support_projection_absorbs(HermitianMatrix(a, TensorShape(shape)))
    details.append("absorption")

    # duality sandwiches (1e-6)
    for _ in range(100):
        f = random_channel(rng, 2)
        g = random_channel(rng, 2)
        out = sdp.solve(sdp.build_compat(f, g))
        beta = out.residuals["dual_objective"]
        assert abs(out.value - beta) <= 1e-6 * (1 + abs(out.value))
        xbar = (
            np.kron(f.choi.array, np.eye(2)) / 2
            + embed_identity_array(g.choi.array, (2, 2), (2, 2, 2), (0, 2)) / 2
            - np.eye(8) / 4
        )
        assert np.linalg.eigvalsh(xbar).min() <= out.value + 1e-6
        assert out.value <= 0.25 + 1e-6
        outj = sdp.solve(sdp.build_jordan_compat(f, g))
        betaj = outj.residuals["dual_objective"]
        assert abs(outj.value - betaj) <= 1e-6 * (1 + abs(outj.value))
        lower = np.linalg.eigvalsh(gen_jordan(f.rep, g.rep, a_jp(2)).choi.array).min()
        assert lower <= outj.value + 1e-6
        assert outj.value <= 0.25 + 1e-6
    details.append("duality sandwiches")

    # pairing identity through the generalized product (1e-8)
    sz = np.diag([1.0, -1.0])
    anchored = a_jp(2).matrix.array + np.kron(np.eye(2), np.kron(sz, sz))
    ops = [a_jp(2), GenJordanOperator(HermitianMatrix(anchored, TensorShape((2, 2, 2))))]
    for _ in range(100):
        f = random_channel(rng, 2)
        g = random_channel(rng, 2)
        z1 = random_hermitian(rng, 4)
        z2 = random_hermitian(rng, 4)
        lhs = (np.tensordot(z1.conj(), f.choi.array, axes=2)
               + np.tensordot(z2.conj(), g.choi.array, axes=2)).real
        for op in ops:
            prod = gen_jordan(f.rep, g.rep, op).choi.array
            big = np.kron(z1, np.eye(2)) + embed_identity_array(z2, (2, 2), (2, 2, 2), (0, 2))
            rhs = np.tensordot(prod.conj(), big, axes=2).real
            assert abs(lhs - rhs) < 1e-8
    details.append("pairing identity")

    # convexity of the compatible set and half-mixing with constant channels
    for _ in range(100):
        f = random_channel(rng, 2)
        g = random_channel(rng, 2)
        fm = mix_channels(f, constant_channel(random_density(rng, 2), 2), 0.5)
        gm = mix_channels(g, constant_channel(random_density(rng, 2), 2), 0.5)
        assert decide(fm, gm).verdict == "Compatible"
        om = partial_depolarizing_channel(1.0, 2)
        lam = rng.choice([0.25, 0.5, 0.75])
        assert decide(mix_channels(fm, om, lam), mix_channels(gm, om, lam)).verdict == "Compatible"
    details.append("convexity/half-mixing")

    elapsed = time.time() - t0
    ok = elapsed < 600.0
    report(7, ok, elapsed, f"suites passed: {', '.join(details)}")


def test_acceptance_8_jordan_region_vs_hull():
    t0 = time.time()
    grid = np.linspace(0, 1, 41)
    outside_hull_cp = 0
    inside_hull_not_cp = 0
    for q0 in grid:
        for q1 in grid:
            f = partial_depolarizing_channel(q0, 2)
            g = partial_depolarizing_channel(q1, 2)
            cp = np.linalg.eigvalsh(jordan_channel(f.rep, g.rep).choi.array).min() >= -1e-10
            hull = 2 * q0 + q1 >= 1 - 1e-12 and q0 + 2 * q1 >= 1 - 1e-12
            if cp and not hull:
                outside_hull_cp += 1
            if hull and not cp:
                inside_hull_not_cp += 1
    elapsed = time.time() - t0
    ok = outside_hull_cp >= 1 and inside_hull_not_cp >= 1
    report(8, ok, elapsed,
           f"CP points outside hull: {outside_hull_cp}, "
           f"hull points not CP: {inside_hull_not_cp}")
