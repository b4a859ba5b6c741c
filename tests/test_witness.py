import numpy as np
import pytest

from qcc import reference, sdp
from qcc.channels import (dephasing_channel, depolarizing_channel, identity_channel,
                          partial_depolarizing_channel)
from qcc.jordan import a_jp, verify_gen_jordan_operator
from qcc.linalg import HermitianMatrix, TensorShape, ptrace_array
from qcc.rand import random_channel, random_hermitian
from qcc.sdp.decide import decide
from qcc.sdp.problem import block_images, blocks_adjoint, constraints_adjoint
from qcc.tolerances import DECISION_TOL, FARKAS_RESIDUAL_TOL, GEN_JORDAN_TOL, PAIRING_TOL, PSD_TOL
from qcc.witness import (
    JordanWitness,
    Witness,
    certificate_from_json,
    certificate_to_json,
    no_broadcast_witness,
    verify_compatibilizer,
    verify_jordan_witness,
    verify_witness,
)


def _hs(a, b):
    return float(np.tensordot(a.conj(), b, axes=2).real)


class TestVerifyWitness:
    def test_reference_ppt_witness(self):
        f, g = reference.channel_pair()
        w = reference.ppt_witness()
        rep = verify_witness(w, f, g)
        assert rep.valid
        assert rep.margin == pytest.approx(-0.5, abs=1e-12)
        assert rep.min_eig >= -1e-12

    def test_zero_witness_invalid(self):
        f, g = reference.channel_pair()
        z = HermitianMatrix(np.zeros((4, 4)), TensorShape((2, 2)))
        rep = verify_witness(Witness(z, z, "plain"), f, g)
        assert not rep.valid and rep.margin == 0.0

    def test_solver_dual_reverifies(self):
        ident = identity_channel(2)
        dec = decide(ident, ident)
        rep = verify_witness(dec.witness, ident, ident)
        assert rep.valid
        assert rep.margin == pytest.approx(-0.125, abs=1e-6)

    def test_homogeneity(self):
        f, g = reference.channel_pair()
        w = reference.ppt_witness()
        base = verify_witness(w, f, g)
        for scale in (2.0, 7.5, 0.25):
            scaled = Witness(
                HermitianMatrix(scale * w.z1.array, w.z1.shape),
                HermitianMatrix(scale * w.z2.array, w.z2.shape),
                mode="ppt",
            )
            rep = verify_witness(scaled, f, g)
            assert rep.valid
            assert rep.margin == pytest.approx(scale * base.margin, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        f, g = reference.channel_pair()
        z = HermitianMatrix(np.zeros((9, 9)), TensorShape((3, 3)))
        with pytest.raises(ValueError, match="shape"):
            verify_witness(Witness(z, z, "plain"), f, g)

    def test_soundness_against_solver(self, rng):
        # wherever a witness verifies, the corresponding program is infeasible
        from qcc.rand import random_channel

        # a capped number of draws, so a decider that never refutes fails
        # the test instead of hanging it
        count = draws = 0
        while count < 20:
            assert draws < 200, f"only {count} of {draws} random pairs decided Incompatible"
            draws += 1
            f = random_channel(rng, 2)
            g = random_channel(rng, 2)
            dec = decide(f, g)
            if dec.verdict != "Incompatible":
                continue
            count += 1
            assert verify_witness(dec.witness, f, g).valid
            out = sdp.solve(sdp.build_compat(f, g))
            assert out.status == "Infeasible"


class TestJordanWitness:
    def test_solver_dual_reverifies(self):
        ident = identity_channel(2)
        dec = decide(ident, ident, "jordan")
        rep = verify_jordan_witness(dec.witness, ident, ident)
        assert rep.valid
        assert rep.constraint_residual <= 1e-8

    def test_zero_parts_invalid(self):
        ident = identity_channel(2)
        zero2 = HermitianMatrix(np.zeros((4, 4)), TensorShape((2, 2)))
        zero3 = HermitianMatrix(np.zeros((8, 8)), TensorShape((2, 2, 2)))
        rep = verify_jordan_witness(JordanWitness(zero2, zero2, zero3), ident, ident)
        assert not rep.valid

    def test_scaling_doubles_margin(self):
        ident = identity_channel(2)
        dec = decide(ident, ident, "jordan")
        w = dec.witness
        doubled = JordanWitness(
            HermitianMatrix(2 * w.w1.array, w.w1.shape),
            HermitianMatrix(2 * w.w2.array, w.w2.shape),
            HermitianMatrix(2 * w.rho.array, w.rho.shape),
        )
        rep = verify_jordan_witness(doubled, ident, ident)
        base = verify_jordan_witness(w, ident, ident)
        assert rep.valid
        assert rep.margin == pytest.approx(2 * base.margin, rel=1e-9)


class TestNoBroadcastWitness:
    def test_pairing_values_qubit(self):
        w = no_broadcast_witness(2)
        ident = identity_channel(2)
        assert verify_witness(w, ident, ident).margin == pytest.approx(-4 / 3, abs=1e-12)
        o = partial_depolarizing_channel(1 / 3, 2)
        assert verify_witness(w, o, o).margin == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_threshold_sharpness(self, d):
        w = no_broadcast_witness(d)
        ident = identity_channel(d)
        omega = depolarizing_channel(d)
        m0 = verify_witness(w, ident, ident).margin
        m1 = verify_witness(w, omega, omega).margin
        crossing = -m0 / (m1 - m0)
        assert crossing == pytest.approx(d / (2 * (d + 1)), abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_psd_condition(self, d):
        w = no_broadcast_witness(d)
        ident = identity_channel(d)
        big = constraints_adjoint(sdp.build_compat(ident, ident), (w.z1.array, w.z2.array))
        assert np.linalg.eigvalsh(big).min() >= -1e-12

    def test_validity_below_threshold(self):
        w = no_broadcast_witness(3)
        for p in (0.0, 0.2, 0.374):
            o = partial_depolarizing_channel(p, 3)
            assert verify_witness(w, o, o).valid


class TestAdjointEmbeddings:
    def test_pairing_adjoint_identity(self, rng):
        # <sum_c Tr_c*(Y_c), X> = sum_c <Y_c, Tr_c(X)> and
        # <sum_l img_l*(Z_l), X> = sum_l <Z_l, img_l(X)>, on programs with
        # every block kind, maps that change a factor's size, and three
        # constraints
        f, g = random_channel(rng, 2, 3), random_channel(rng, 2, 4)
        problems = (sdp.build_compat(f, g, ppt=True), sdp.build_jordan_compat(f, g),
                    sdp.build_k_extension(random_channel(rng, 2, 3), 3))
        for problem in problems:
            for _ in range(10):
                x = random_hermitian(rng, problem.side)
                ys = [random_hermitian(rng, con.rhs.shape[0]) for con in problem.constraints]
                traces = [ptrace_array(x, problem.factors, con.traced) for con in problem.constraints]
                lhs = _hs(constraints_adjoint(problem, ys), x)
                assert abs(lhs - sum(map(_hs, ys, traces))) < 1e-10
                images = block_images(problem, x)
                zs = np.stack([random_hermitian(rng, images.shape[-1]) for _ in problem.blocks])
                lhs = _hs(blocks_adjoint(problem, zs), x)
                assert abs(lhs - sum(map(_hs, zs, images))) < 1e-10


class TestCertificateJson:
    def test_plain_roundtrip(self):
        w = reference.ppt_witness()
        back = certificate_from_json(certificate_to_json(w))
        assert isinstance(back, Witness)
        assert back.mode == "ppt"
        assert np.abs(back.z1.array - w.z1.array).max() == 0

    def test_jordan_roundtrip(self):
        ident = identity_channel(2)
        dec = decide(ident, ident, "jordan")
        back = certificate_from_json(certificate_to_json(dec.witness))
        assert isinstance(back, JordanWitness)
        rep = verify_jordan_witness(back, ident, ident)
        assert rep.valid


# Each case perturbs a valid certificate so that one condition of its check
# lands just inside (``inside``) or just outside its bound, and returns the
# report, the measure of that condition and the value it was moved to.  The
# other conditions stay where the valid certificate has them, or move away
# from their bounds.


def _bound(tol, inside):
    return (0.9 if inside else 1.1) * tol


def _witness_case(mode, condition, inside):
    if mode == "plain":
        f = g = identity_channel(2)
        w = decide(f, g).witness
    else:
        (f, g), w = reference.channel_pair(), reference.ppt_witness()
    base = verify_witness(w, f, g)
    # Z1 + sI moves the adjoint sum by sI and the pairing by s Tr(J1) = s d
    if condition == "psd":
        target = -_bound(PSD_TOL, inside)
        shift = target - base.min_eig
    else:
        target = -_bound(PAIRING_TOL, not inside)
        shift = (target - base.margin) / f.d_in
    z1 = HermitianMatrix(w.z1.array + shift * np.eye(w.z1.side), w.z1.shape)
    rep = verify_witness(Witness(z1, w.z2, w.mode), f, g)
    return rep, rep.min_eig if condition == "psd" else rep.margin, target


def _jordan_witness_case(condition, inside):
    ident = identity_channel(2)
    w = decide(ident, ident, "jordan").witness
    base = verify_jordan_witness(w, ident, ident)
    w1, rho = w.w1.array, w.rho.array
    if condition == "residual":
        # Tr*(E) has Frobenius norm 1, and E is orthogonal to J(id)
        target = _bound(FARKAS_RESIDUAL_TOL, inside)
        e = np.zeros((4, 4))
        e[1, 1] = 1 / np.sqrt(2)
        w1 = w1 + target * e
    else:
        # rho + sI pulls back to Tr*(W1 + sI), which pairs s Tr J(id) = 2s higher
        if condition == "psd":
            target = -_bound(PSD_TOL, inside)
            shift = target - base.min_eig
        else:
            target = -_bound(PAIRING_TOL, not inside)
            shift = (target - base.margin) / 2
        w1, rho = w1 + shift * np.eye(4), rho + shift * np.eye(8)
    rep = verify_jordan_witness(JordanWitness(HermitianMatrix(w1, w.w1.shape), w.w2,
                                              HermitianMatrix(rho, w.rho.shape)), ident, ident)
    measure = {"residual": rep.constraint_residual, "psd": rep.min_eig, "pairing": rep.margin}
    return rep, measure[condition], target


def _compatibilizer_case(ppt, condition, inside):
    # the dephasing pair's compatibilizer that copies the computational basis
    deph = dephasing_channel(2)
    x = np.diag([1.0, 0, 0, 0, 0, 0, 0, 1.0]).astype(complex)
    if condition == "marginal":
        # each marginal of I has 2 on its diagonal
        target = _bound(DECISION_TOL, inside)
        x = x + target / 2 * np.eye(8)
    else:
        # a pair of entries between basis states |100>, |011> where X is 0
        # gives X eigenvalues +-c; its partial transpose puts them between
        # |000>, |111>, where X is the identity (and the reverse for "pt")
        target = -_bound(DECISION_TOL, inside)
        i, j = (4, 3) if condition == "psd" else (0, 7)
        x[i, j] = x[j, i] = -target
    rep = verify_compatibilizer(x, deph, deph, ppt)
    return rep, rep.constraint_residual if condition == "marginal" else rep.min_eig, target


def _operator_case(condition, inside):
    # for the dephasing pair the product image of A_jp is diagonal, with
    # zeros off |000> and |111>
    deph = dephasing_channel(2)
    a = a_jp(2).matrix.array
    if condition == "marginal":
        target = _bound(GEN_JORDAN_TOL, inside)
        a = a + target / 2 * np.eye(8)
    else:
        # I (x) Z (x) Z has zero middle marginals and dephasing keeps it
        target = -_bound(DECISION_TOL, inside)
        z = np.diag([1.0, -1.0])
        a = a - target * np.kron(np.eye(2), np.kron(z, z))
    rep = verify_gen_jordan_operator(HermitianMatrix(a, TensorShape((2, 2, 2))), deph, deph)
    return rep, rep.constraint_residual if condition == "marginal" else rep.min_eig, target


BOUND_CASES = {
    "plain-witness-psd": lambda inside: _witness_case("plain", "psd", inside),
    "plain-witness-pairing": lambda inside: _witness_case("plain", "pairing", inside),
    "ppt-witness-psd": lambda inside: _witness_case("ppt", "psd", inside),
    "ppt-witness-pairing": lambda inside: _witness_case("ppt", "pairing", inside),
    "jordan-witness-residual": lambda inside: _jordan_witness_case("residual", inside),
    "jordan-witness-rho-psd": lambda inside: _jordan_witness_case("psd", inside),
    "jordan-witness-pairing": lambda inside: _jordan_witness_case("pairing", inside),
    "compatibilizer-marginal": lambda inside: _compatibilizer_case(False, "marginal", inside),
    "compatibilizer-psd": lambda inside: _compatibilizer_case(False, "psd", inside),
    "ppt-compatibilizer-marginal": lambda inside: _compatibilizer_case(True, "marginal", inside),
    "ppt-compatibilizer-psd": lambda inside: _compatibilizer_case(True, "psd", inside),
    "ppt-compatibilizer-pt-psd": lambda inside: _compatibilizer_case(True, "pt", inside),
    "jordan-operator-marginal": lambda inside: _operator_case("marginal", inside),
    "jordan-operator-image-psd": lambda inside: _operator_case("psd", inside),
}


@pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
@pytest.mark.parametrize("case", list(BOUND_CASES))
def test_each_bound_of_each_certificate_check(case, inside):
    rep, measure, target = BOUND_CASES[case](inside)
    assert measure == pytest.approx(target, rel=1e-3)
    assert rep.valid == inside
