import numpy as np
import pytest

from qcc import reference, sdp
from qcc.channels import depolarizing_channel, identity_channel, partial_depolarizing_channel
from qcc.linalg import HermitianMatrix, TensorShape, ptrace_array
from qcc.rand import random_hermitian
from qcc.sdp.decide import decide
from qcc.witness import (
    JordanWitness,
    Witness,
    adjoint_sum,
    certificate_from_json,
    certificate_to_json,
    no_broadcast_witness,
    verify_jordan_witness,
    verify_witness,
)


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

        count = 0
        while count < 20:
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
        big = adjoint_sum(w.z1.array, w.z2.array, (d, d, d))
        assert np.linalg.eigvalsh(big).min() >= -1e-12

    def test_validity_below_threshold(self):
        w = no_broadcast_witness(3)
        for p in (0.0, 0.2, 0.374):
            o = partial_depolarizing_channel(p, 3)
            assert verify_witness(w, o, o).valid


class TestAdjointEmbeddings:
    def test_pairing_adjoint_identity(self, rng):
        # <Z, Tr_Y(X)> = <Tr*_Y(Z), X> via the witness-side embeddings
        dims = (2, 2, 2)
        for _ in range(50):
            x = random_hermitian(rng, 8)
            z1 = random_hermitian(rng, 4)
            z2 = random_hermitian(rng, 4)
            big = adjoint_sum(z1, z2, dims)
            lhs = np.tensordot(big.conj(), x, axes=2).real
            rhs = (
                np.tensordot(z1.conj(), ptrace_array(x, dims, [2]), axes=2).real
                + np.tensordot(z2.conj(), ptrace_array(x, dims, [1]), axes=2).real
            )
            assert abs(lhs - rhs) < 1e-12


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
