"""Reference verification suite: replays every built-in exact-value example.

Each check returns (name, ok, detail).  The CLI command ``verify-paper``
prints one line per check and exits nonzero if any fails.  Region-level
grid claims are exercised by the acceptance test suite instead; this
suite keeps to the printed-value examples so a full run stays fast.  A
solve's Feasible or Infeasible status is certified by ``sdp.solve`` itself.
"""

from __future__ import annotations

import numpy as np

from . import analytic, channels, jordan, reference, sdp
from .linalg import ptranspose_array
from .rand import random_channel, random_density
from .sdp.decide import decide
from .witness import no_broadcast_witness, verify_compatibilizer, verify_witness

Check = tuple[str, bool, str]

_PT_A = np.array([[3, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 3]]) / 4.0


def _eig_pair_structure(arr: np.ndarray) -> tuple[bool, str]:
    w = np.linalg.eigvalsh(arr)
    pairs = w.reshape(4, 2)
    paired = np.abs(pairs[:, 0] - pairs[:, 1]).max() <= 1e-10
    distinct = np.all(np.diff(pairs[:, 0]) > 1e-6)
    positive = w[0] > 0
    total = abs(w.sum() - 2.0) <= 1e-10
    ok = bool(paired and distinct and positive and total)
    return ok, f"eigs {np.round(w, 6)} sum {w.sum():.12f}"


def run_checks() -> list[Check]:
    out: list[Check] = []
    f, g = reference.channel_pair()
    comp = reference.compatibilizer()
    jc = comp.choi.array
    comp_report = verify_compatibilizer(jc, f, g)
    out.append(("compatibilizer marginals reproduce the pair", comp_report.constraint_residual == 0.0,
                f"max dev {comp_report.constraint_residual:.2e}"))

    wmins = [
        np.linalg.eigvalsh(f.choi.array).min(),
        np.linalg.eigvalsh(g.choi.array).min(),
        np.linalg.eigvalsh(ptranspose_array(f.choi.array, (2, 2), 0)).min(),
        np.linalg.eigvalsh(ptranspose_array(g.choi.array, (2, 2), 0)).min(),
    ]
    out.append(("pair and partial transposes PSD", min(wmins) >= -1e-12,
                f"min eigenvalue {min(wmins):.2e}"))

    pt_dev = np.abs(ptranspose_array(f.choi.array, (2, 2), 0) - _PT_A).max()
    out.append(("partial transpose matches the printed matrix", pt_dev == 0.0, f"dev {pt_dev:.2e}"))

    ok, detail = _eig_pair_structure(jc)
    out.append(("compatibilizer spectrum: four positive doublets summing to 2", ok, detail))

    rep_f = channels.validate(f.rep)
    rep_g = channels.validate(g.rep)
    ok = all([rep_f.cp, rep_f.tp, rep_f.eb_2x2, rep_g.cp, rep_g.tp, rep_g.eb_2x2])
    out.append(("both channels validate cp, tp and entanglement-breaking", ok,
                f"a: {rep_f}, b: {rep_g}"))

    marg = channels.channel_marginal(comp, 1)
    dev = np.abs(marg.choi.array - f.choi.array).max()
    out.append(("channel marginal (keep=1) equals the first channel", dev <= 1e-12, f"dev {dev:.2e}"))

    for name, c in (("first", f), ("second", g)):
        mp = channels.measure_prepare_decomposition(c.rep)
        back = channels.measure_prepare_channel(mp)
        dev = np.abs(back.choi.array - c.choi.array).max()
        out.append((f"measure-and-prepare decomposition reproduces the {name} channel",
                    dev <= 1e-10, f"roundtrip dev {dev:.2e}"))

    dec = decide(f, g, "compat", optimum=True)
    out.append(("pair is compatible (optimum > 0)", dec.verdict == "Compatible" and dec.value > 0,
                f"verdict {dec.verdict}, optimum {dec.value:.6f}"))
    out.append(("printed compatibilizer is a strictly feasible point", comp_report.min_eig > 0,
                f"min eig {comp_report.min_eig:.6f}"))

    dec = decide(f, g, "ppt_compat")
    out.append(("no PPT compatibilizer exists", dec.verdict == "Incompatible",
                f"verdict {dec.verdict}, margin {dec.witness_margin:.6f}"))

    w = reference.ppt_witness()
    rep = verify_witness(w, f, g)
    ok = rep.valid and abs(rep.margin + 0.5) <= 1e-12 and rep.min_eig >= -1e-12
    out.append(("printed witness verifies in ppt mode with margin -1/2", ok,
                f"margin {rep.margin:.15f}, min eig {rep.min_eig:.2e}"))

    ident = channels.identity_channel(2)
    dec = decide(ident, ident, optimum=True)
    ok = dec.verdict == "Incompatible" and dec.witness is not None
    out.append(("identity pair is incompatible with a verified witness", ok,
                f"verdict {dec.verdict}, optimum {dec.value:.6f}"))

    wnb = no_broadcast_witness(2)
    r0 = verify_witness(wnb, ident, ident)
    ok = abs(r0.margin + 4.0 / 3.0) <= 1e-12
    out.append(("no-broadcasting witness pairing at p=0 is -4/3", ok, f"margin {r0.margin:.15f}"))
    othird = channels.partial_depolarizing_channel(1.0 / 3.0, 2)
    r1 = verify_witness(wnb, othird, othird)
    out.append(("no-broadcasting witness pairing vanishes at p=1/3", abs(r1.margin) <= 1e-12,
                f"margin {r1.margin:.2e}"))
    for d in (2, 3):
        wd = no_broadcast_witness(d)
        idd = channels.identity_channel(d)
        omega = channels.depolarizing_channel(d)
        rep_d = verify_witness(wd, idd, idd)
        m0, m1 = rep_d.margin, verify_witness(wd, omega, omega).margin
        crossing = -m0 / (m1 - m0)
        target = d / (2.0 * (d + 1.0))
        ok = abs(crossing - target) <= 1e-10
        out.append((f"witness pairing crosses zero at d/(2(d+1)) for d={d}", ok,
                    f"crossing {crossing:.12f}, target {target:.12f}"))
        out.append((f"witness adjoint sum is PSD for d={d}", rep_d.min_eig >= -1e-12,
                    f"min eig {rep_d.min_eig:.2e}"))

    o13 = channels.partial_depolarizing_channel(1.0 / 3.0, 2)
    outc = sdp.solve(sdp.build_compat(o13, o13))
    out.append(("depolarizing pair at the boundary q=1/3 is feasible and certified",
                outc.status == "Feasible",
                f"{outc.status}, optimum {outc.value:.3e}"))
    o6 = channels.partial_depolarizing_channel(0.6, 2)
    dec = decide(o6, o6)
    out.append(("depolarizing pair at (0.6, 0.6) is compatible", dec.verdict == "Compatible",
                f"verdict {dec.verdict}"))

    j13 = o13.choi
    lhs = 2.0
    arr = j13.array
    det = np.linalg.det(arr).real
    rhs = np.trace(arr @ arr).real - 4.0 * np.sqrt(max(det, 0.0))
    ok = analytic.qubit_self_compatible(j13) and abs(lhs - rhs) <= 1e-12
    out.append(("qubit criterion holds with equality at q=1/3", ok,
                f"lhs {lhs:.12f}, rhs {rhs:.12f}"))
    out.append(("family self-compatibility threshold at p=0 is 1/3",
                abs(analytic.xi_self_threshold(0.0) - 1.0 / 3.0) <= 1e-15,
                f"threshold {analytic.xi_self_threshold(0.0):.12f}"))
    out.append(("measure-and-prepare threshold at p=0 is 2/3",
                abs(analytic.xi_mp_threshold(0.0) - 2.0 / 3.0) <= 1e-15,
                f"threshold {analytic.xi_mp_threshold(0.0):.12f}"))
    out.append(("depolarizing-pair criterion includes the boundary point (1/3, 1/3)",
                analytic.depol_pair_compatible(1 / 3, 1 / 3) and analytic.depol_pair_compatible(0, 1),
                ""))

    oq = channels.partial_depolarizing_channel(0.5, 2)
    inv = channels.invert_map(oq.rep)
    expected = 2.0 * (channels.identity_channel(2).choi.array
                      - 0.5 * channels.depolarizing_channel(2).choi.array)
    dev = np.abs(inv.choi.array - expected).max()
    out.append(("partially depolarizing inverse matches the closed form", dev <= 1e-12,
                f"dev {dev:.2e}"))

    xi = channels.xi_channel(0.25, 0.25)
    inv_closed = analytic.xi_inverse(analytic.XiParams(0.25, 0.25))
    inv_num = channels.invert_map(xi.rep)
    dev = np.abs(inv_closed.choi.array - inv_num.choi.array).max()
    out.append(("dephasing-depolarizing inverse matches the closed form", dev <= 1e-10,
                f"dev {dev:.2e}"))
    inv_a = analytic.xi_inverse(analytic.XiParams(0.0, 0.5))
    inv_b = channels.invert_map(channels.partial_depolarizing_channel(0.5, 2).rep)
    dev = np.abs(inv_a.choi.array - inv_b.choi.array).max()
    out.append(("the two printed inverse formulas agree at p=0", dev <= 1e-12, f"dev {dev:.2e}"))

    rng = np.random.default_rng(20240901)
    psi = random_channel(rng, 2)
    rho = random_density(rng, 2)
    cchan = channels.constant_channel(rho, 2)
    prod = jordan.jordan_channel(psi.rep, cchan.rep)
    dev = np.abs(prod.choi.array - np.kron(psi.choi.array, rho)).max()
    out.append(("product with a constant channel factorizes", dev <= 1e-12, f"dev {dev:.2e}"))

    ident3 = channels.identity_channel(2)
    k3 = sdp.solve(sdp.build_k_extension(ident3, 3))
    out.append(("three copies of the identity are infeasible, with a Farkas certificate",
                k3.status == "Infeasible",
                f"{k3.status}, optimum {k3.value:.4f}"))

    p = 0.4
    xi_b = channels.xi_channel(p, 2 * (1 - p) / 3)
    for k in (2, 3, 4):
        outk = sdp.solve(sdp.build_k_extension(xi_b, k))
        out.append((f"measure-and-prepare boundary point extends to k={k}, certified",
                    outk.status == "Feasible",
                    f"{outk.status}, optimum {outk.value:.4f}"))
    return out


def main() -> int:
    checks = run_checks()
    failures = 0
    for name, ok, detail in checks:
        tag = "PASS" if ok else "FAIL"
        line = f"{tag}  {name}"
        if detail:
            line += f"  [{detail}]"
        print(line)
        failures += 0 if ok else 1
    print(f"{len(checks) - failures}/{len(checks)} reference checks passed")
    return 0 if failures == 0 else 1
