import pickle

import numpy as np
import pytest

from qcc import linalg, reference
from qcc.linalg import (
    HermitianMatrix,
    TensorShape,
    embed_identity_array,
    herm_to_vec,
    hermitian_basis,
    hermitian_eig,
    kron,
    partial_trace,
    partial_transpose,
    pinv_sqrt,
    support_projection_absorbs,
    swap_operator,
    symmetric_basis,
    vec_to_herm,
)
from qcc.rand import random_hermitian, random_psd


def herm(arr, shape=None):
    return HermitianMatrix(arr, shape)


E00 = np.diag([1.0, 0.0])
E11 = np.diag([0.0, 1.0])


class TestHermitianMatrix:
    def test_symmetrizes_small_noise(self, rng):
        a = random_hermitian(rng, 3)
        noisy = a + 1e-14 * rng.normal(size=(3, 3))
        m = herm(noisy)
        assert np.abs(m.array - m.array.conj().T).max() == 0.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            herm(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_shape_must_factor_the_side(self):
        with pytest.raises(ValueError):
            herm(np.eye(4), TensorShape((2, 3)))

    def test_pickle_round_trip_stays_immutable(self, rng):
        m = herm(random_hermitian(rng, 6), TensorShape((2, 3)))
        back = pickle.loads(pickle.dumps(m))
        assert np.array_equal(back.array, m.array) and back.shape == m.shape
        assert not back.array.flags.writeable
        with pytest.raises(AttributeError, match="immutable"):
            back.shape = TensorShape((6,))


class TestKron:
    def test_identity(self):
        out = kron(herm(np.eye(2)), herm(np.eye(2)))
        assert np.array_equal(out.array, np.eye(4))
        assert out.shape.factors == (2, 2)

    def test_basis_case(self):
        out = kron(herm(E00), herm(E11))
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert np.array_equal(out.array, expected)

    def test_matches_index_formula(self, rng):
        # oracle: brute force over all index quadruples
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        out = kron(herm(a), herm(b)).array
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    ll = range(2)
                    for l in ll:
                        assert out[i * 2 + k, j * 2 + l] == pytest.approx(a[i, j] * b[k, l])


class TestPartialTrace:
    def test_identity_case(self):
        out = partial_trace(herm(np.eye(4), TensorShape((2, 2))), {1})
        assert np.allclose(out.array, 2 * np.eye(2))
        assert out.shape.factors == (2,)

    def test_reference_compatibilizer_marginal(self):
        f, _g = reference.channel_pair()
        comp = reference.compatibilizer()
        out = partial_trace(comp.choi, {2})
        assert np.abs(out.array - f.choi.array).max() == 0.0

    def test_matches_summation_oracle(self, rng):
        m = random_hermitian(rng, 8)
        out = partial_trace(herm(m, TensorShape((2, 2, 2))), {1}).array
        # oracle: explicit triple-index summation
        t = m.reshape(2, 2, 2, 2, 2, 2)
        expected = np.zeros((4, 4), dtype=complex)
        for a in range(2):
            for c in range(2):
                for ap in range(2):
                    for cp in range(2):
                        expected[a * 2 + c, ap * 2 + cp] = sum(
                            t[a, b, c, ap, b, cp] for b in range(2)
                        )
        assert np.abs(out - expected).max() < 1e-14

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            partial_trace(herm(np.eye(4), TensorShape((2, 2))), {2})


class TestPartialTranspose:
    def test_reference_printed_matrix(self):
        f, _ = reference.channel_pair()
        printed = np.array([[3, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 3]]) / 4
        out = partial_transpose(f.choi, 0)
        assert np.abs(out.array - printed).max() == 0.0

    def test_diagonal_unchanged(self):
        d = herm(np.diag([1.0, 2.0, 3.0, 4.0]), TensorShape((2, 2)))
        assert np.array_equal(partial_transpose(d, 0).array, d.array)

    def test_involution(self, rng):
        m = herm(random_hermitian(rng, 6), TensorShape((2, 3)))
        out = partial_transpose(partial_transpose(m, 1), 1)
        assert np.array_equal(out.array, m.array)

    def test_preserves_trace_and_hermiticity(self, rng):
        for _ in range(50):
            m = random_hermitian(rng, 6)
            out = partial_transpose(herm(m, TensorShape((2, 3))), 0).array
            assert abs(np.trace(out) - np.trace(m)) < 1e-12
            assert np.abs(out - out.conj().T).max() == 0.0


class TestHermitianEig:
    def test_identity(self):
        w, _ = hermitian_eig(herm(np.eye(4)))
        assert np.allclose(w, 1.0)

    def test_reference_doublet_spectrum(self):
        comp = reference.compatibilizer()
        w, _ = hermitian_eig(comp.choi)
        pairs = w.reshape(4, 2)
        assert np.abs(pairs[:, 0] - pairs[:, 1]).max() < 1e-12
        assert np.all(np.diff(pairs[:, 0]) > 1e-3)
        assert w[0] > 0
        assert abs(w.sum() - 2.0) < 1e-10

    def test_reconstruction_oracle(self, rng):
        for n in (2, 5, 16):
            for _ in range(30):
                m = random_hermitian(rng, n)
                w, v = hermitian_eig(m)
                assert np.all(np.diff(w) >= -1e-14)
                norm = max(np.abs(w).max(), 1.0)
                assert np.abs((v * w) @ v.conj().T - m).max() < 1e-10 * norm
                assert np.abs(m @ v - v * w).max() < 1e-10 * norm
                assert np.abs(v.conj().T @ v - np.eye(n)).max() < 1e-10


class TestPinvSqrt:
    def test_identity(self):
        assert np.allclose(pinv_sqrt(herm(np.eye(2))).array, np.eye(2))

    def test_forced_by_definition(self):
        out = pinv_sqrt(herm(np.diag([4.0, 0.0])))
        assert np.allclose(out.array, np.diag([0.5, 0.0]))

    def test_rank_deficient_projector_oracle(self, rng):
        for _ in range(25):
            sigma = random_psd(rng, 4, rank=2)
            inv_sqrt = pinv_sqrt(herm(sigma)).array
            proj = linalg.support_projector_array(sigma)
            assert np.abs(inv_sqrt @ sigma @ inv_sqrt - proj).max() < 1e-9

    def test_commutes_with_input(self, rng):
        for _ in range(25):
            sigma = random_psd(rng, 4, rank=3)
            out = pinv_sqrt(herm(sigma)).array
            assert np.abs(out @ sigma - sigma @ out).max() < 1e-9

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError, match="not PSD"):
            pinv_sqrt(herm(np.diag([1.0, -1.0])))


class TestSwapOperator:
    def test_degenerate(self):
        assert np.array_equal(swap_operator(1).array, [[1.0]])

    def test_qubit_permutation(self):
        expected = np.eye(4)[[0, 2, 1, 3]]
        assert np.array_equal(swap_operator(2).array, expected)

    def test_exhaustive_basis_pairs(self):
        w = swap_operator(3).array
        assert np.allclose(w @ w, np.eye(9))
        for i in range(3):
            for j in range(3):
                u = np.zeros(3)
                v = np.zeros(3)
                u[i] = 1.0
                v[j] = 1.0
                assert np.allclose(w @ np.kron(u, v), np.kron(v, u))


class TestSupportProjectionAbsorbs:
    def test_rank_one(self):
        a = herm(np.kron(E00, E00), TensorShape((2, 2)))
        assert support_projection_absorbs(a)

    def test_full_support(self):
        assert support_projection_absorbs(herm(np.eye(4), TensorShape((2, 2))))

    def test_engineered_rank_deficient_marginal(self, rng):
        # support the X part on a 1d subspace so the marginal is singular
        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        vec /= np.linalg.norm(vec)
        proj = np.outer(vec, vec.conj())
        a = np.kron(proj, random_psd(rng, 4))
        assert support_projection_absorbs(herm(a, TensorShape((2, 4))))

    def test_absorption_property_many(self, rng):
        # spec invariant: 1000 random PSD matrices on 2x2 and 2x4 shapes
        for shape in ((2, 2), (2, 4)):
            side = shape[0] * shape[1]
            for i in range(500):
                rank = 1 + i % side
                a = random_psd(rng, side, rank=rank)
                assert support_projection_absorbs(herm(a, TensorShape(shape)))


class TestBasisAndEmbedding:
    def test_basis_orthonormal(self):
        for n in (2, 3):
            b = hermitian_basis(n)
            gram = np.einsum("iab,jab->ij", b.conj(), b).real
            assert np.abs(gram - np.eye(n * n)).max() < 1e-14

    def test_vec_roundtrip(self, rng):
        m = random_hermitian(rng, 5)
        v = herm_to_vec(m)
        assert np.abs(vec_to_herm(v, 5) - m).max() < 1e-14
        b = hermitian_basis(5)
        rebuilt = np.einsum("i,iab->ab", v, b)
        assert np.abs(rebuilt - m).max() < 1e-13

    @pytest.mark.parametrize("n", range(1, 7))
    def test_vec_is_basis_expansion(self, rng, n):
        m = random_hermitian(rng, n)
        coeffs = np.einsum("iab,ab->i", hermitian_basis(n).conj(), m).real
        assert np.abs(herm_to_vec(m) - coeffs).max() <= 1e-14 * max(1.0, np.abs(m).max())

    @pytest.mark.parametrize("batch", [(7,), (2, 3), (0,)], ids=["k", "a_b", "empty"])
    def test_batch_axes_act_matrix_by_matrix(self, rng, batch):
        n = 4
        ms = np.array([random_hermitian(rng, n) for _ in range(int(np.prod(batch)))])
        ms = ms.reshape(batch + (n, n))
        vs = rng.standard_normal(batch + (n * n,))
        out_v = herm_to_vec(ms)
        out_m = vec_to_herm(vs, n)
        assert out_v.shape == batch + (n * n,) and out_m.shape == batch + (n, n)
        for idx in np.ndindex(*batch):
            assert np.array_equal(out_v[idx], herm_to_vec(ms[idx]))
            assert np.array_equal(out_m[idx], vec_to_herm(vs[idx], n))

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_roundtrip_exact_on_power_of_two_coordinates(self, rng, n):
        # signed powers of two pass both scalings without rounding, since
        # fl(1/sqrt(2)) * fl(sqrt(2)) rounds to 1
        v = rng.choice([-1.0, 0.0, 1.0], n * n) * 2.0 ** rng.integers(-20, 20, n * n)
        m = vec_to_herm(v, n)
        assert np.array_equal(m, m.conj().T)
        assert np.array_equal(herm_to_vec(m), v)
        assert np.array_equal(vec_to_herm(herm_to_vec(m), n), m)
        # the diagonal's imaginary parts are +0 even where the diagonal is
        # negative, so written matrices carry no -0.0
        diag = np.diagonal(vec_to_herm(-np.abs(v) - 1.0, n))
        assert not np.signbit(diag.imag).any()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_symmetric_coordinates_are_the_real_hermitian_ones(self, rng, n):
        # a real symmetric matrix's coordinates are its Hermitian ones
        # without the imaginary elements, in the same order
        m = random_hermitian(rng, n).real
        keep = np.r_[0:n, n : n * n : 2]
        v = herm_to_vec(m, real=True)
        assert v.shape == (n * (n + 1) // 2,)
        assert np.array_equal(v, herm_to_vec(m.astype(np.complex128))[keep])
        back = vec_to_herm(v, n, real=True)
        assert back.dtype == np.float64 and np.abs(back - m).max() <= 1e-15
        b = symmetric_basis(n)
        assert np.array_equal(b, hermitian_basis(n)[keep].real)
        assert np.abs(np.einsum("iab,jab->ij", b, b) - np.eye(len(b))).max() < 1e-14
        with pytest.raises(ValueError, match="coordinates"):
            vec_to_herm(herm_to_vec(m.astype(np.complex128)), n + 1, real=True)

    def test_lookup_tables_are_read_only(self):
        for table in linalg._herm_coords(4):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0

    def test_embed_identity_is_partial_trace_adjoint(self, rng):
        # <Z, Tr_Y(X)> = <Tr*_Y(Z), X> for both embedding positions
        dims = (2, 3, 2)
        x = random_hermitian(rng, 12)
        for traced, kept in (([2], (0, 1)), ([1], (0, 2))):
            z = random_hermitian(rng, 2 * (3 if 1 in kept else 2))
            tr = linalg.ptrace_array(x, dims, traced)
            lhs = np.tensordot(z.conj(), tr, axes=2).real
            occ = [dims[i] for i in kept]
            big = embed_identity_array(z, occ, dims, kept)
            rhs = np.tensordot(big.conj(), x, axes=2).real
            assert abs(lhs - rhs) < 1e-12


def test_partial_trace_of_kron_is_scaled_factor(rng):
    for _ in range(50):
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 2)
        prod = kron(herm(a), herm(b))
        out = partial_trace(prod, {1}).array
        assert np.abs(out - np.trace(b) * a).max() < 1e-12
