import re

import numpy as np
import pytest

from qcc import sdp
from qcc.channels import (
    Channel,
    apply_array,
    compose,
    constant_channel,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    measure_prepare_channel,
    measurement_channel,
    mix,
    pinching_channel,
    tensor,
    unitary_channel,
    xi_channel,
)
from qcc.jordan import (
    GenJordanOperator,
    a_jp,
    gen_jordan,
    gen_jordan_from_compatibilizer,
    jordan_channel,
    jordan_matrix,
    verify_gen_jordan_operator,
)
from qcc.channels import SingularMapError
from qcc.linalg import HermitianMatrix, TensorShape, ptrace_array
from qcc.rand import (
    haar_unitary,
    random_channel,
    random_density,
    random_hermitian,
    random_mp_channel,
    random_pvm,
)

SZ = np.diag([1.0, -1.0])


def choi_identity(d):
    j = np.zeros((d * d, d * d))
    for i in range(d):
        for k in range(d):
            j[i * d + i, k * d + k] = 1.0
    return j


class TestJordanMatrix:
    def test_identity_pair(self):
        assert np.array_equal(jordan_matrix(np.eye(2), np.eye(2)).array, np.eye(2))

    def test_basis_times_sigma_x(self):
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = jordan_matrix(np.diag([1.0, 0.0]), sx)
        assert np.abs(out.array - sx / 2).max() == 0
        assert np.allclose(np.linalg.eigvalsh(out.array), [-0.5, 0.5])

    def test_orthogonal_projectors_vanish(self, rng):
        pvm = random_pvm(rng, 3, ranks=(1, 2))
        out = jordan_matrix(pvm.effects[0], pvm.effects[1])
        assert np.abs(out.array).max() < 1e-12

    def test_anchor_correction(self, rng):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        out = jordan_matrix(a, b, anchor=SZ)
        expected = (a @ b + b @ a) / 2 + np.trace(SZ @ a) * np.trace(SZ @ b) * np.eye(2)
        assert np.abs(out.array - expected).max() < 1e-12

    def test_anchor_must_be_traceless(self):
        with pytest.raises(ValueError, match="traceless"):
            jordan_matrix(np.eye(2), np.eye(2), anchor=np.eye(2))


class TestCanonicalOperator:
    def test_degenerate_dimension(self):
        assert np.array_equal(a_jp(1).matrix.array, [[1.0]])

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_the_defining_sum(self, d):
        # A = (1/2) sum_ijk E_ij (x) (E_ik (x) E_kj + E_kj (x) E_ik), entry by entry
        ref = np.zeros((d ** 3, d ** 3), dtype=np.complex128)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    ref[(i * d + i) * d + k, (j * d + k) * d + j] += 0.5
                    ref[(i * d + k) * d + i, (j * d + j) * d + k] += 0.5
        assert np.array_equal(a_jp(d).matrix.array, ref)

    def test_marginals_exact(self):
        for d in (2, 3):
            op = a_jp(d)
            arr = op.matrix.array
            jid = choi_identity(d)
            assert np.abs(ptrace_array(arr, (d, d, d), [1]) - jid).max() == 0
            assert np.abs(ptrace_array(arr, (d, d, d), [2]) - jid).max() == 0

    def test_self_consistency_with_identity_maps(self):
        op = a_jp(2)
        ident = identity_channel(2).rep
        out = gen_jordan(ident, ident, op)
        assert np.abs(out.choi.array - op.matrix.array).max() < 1e-14

    def test_invalid_marginals_rejected(self):
        bad = np.eye(8)
        with pytest.raises(ValueError, match="marginal"):
            GenJordanOperator(HermitianMatrix(bad, TensorShape((2, 2, 2))))


def quadruple_sum_oracle(frep, grep):
    d = frep.d_in
    out = np.zeros((d * frep.d_out * grep.d_out,) * 2, dtype=complex)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    e_ij = np.zeros((d, d))
                    e_kl = np.zeros((d, d))
                    e_ij[i, j] = 1.0
                    e_kl[k, l] = 1.0
                    jm = (e_ij @ e_kl + e_kl @ e_ij) / 2
                    out += np.kron(
                        np.kron(jm, apply_array(frep, e_ij)), apply_array(grep, e_kl)
                    )
    return out


class TestJordanChannel:
    def test_identity_pair_is_canonical(self):
        ident = identity_channel(2).rep
        out = jordan_channel(ident, ident)
        assert np.abs(out.choi.array - a_jp(2).matrix.array).max() == 0

    def test_dephasing_product_is_cp(self):
        d = dephasing_channel(2).rep
        out = jordan_channel(d, d)
        assert np.linalg.eigvalsh(out.choi.array).min() >= -1e-12

    def test_constant_channel_factorizes(self, rng):
        psi = random_channel(rng, 2, 3)
        rho = random_density(rng, 2)
        out = jordan_channel(psi.rep, constant_channel(rho, 2).rep)
        assert np.abs(out.choi.array - np.kron(psi.choi.array, rho)).max() < 1e-12

    def test_quadruple_sum_oracle(self, rng):
        f = random_channel(rng, 2, 3)
        g = random_channel(rng, 2)
        out = jordan_channel(f.rep, g.rep)
        assert np.abs(out.choi.array - quadruple_sum_oracle(f.rep, g.rep)).max() < 1e-12

    def test_swap_action_form(self, rng):
        # (f . g)(X) = (f (x) g)(W (X (x) I + I (x) X)) / 2
        from qcc.linalg import swap_operator

        f = random_channel(rng, 2)
        g = random_channel(rng, 2)
        prod = jordan_channel(f.rep, g.rep)
        w = swap_operator(2).array
        big = tensor(f.rep, g.rep)
        for _ in range(5):
            x = random_hermitian(rng, 2)
            arg = w @ (np.kron(x, np.eye(2)) + np.kron(np.eye(2), x))
            lhs = apply_array(prod, x)
            rhs = apply_array(big, arg) / 2
            assert np.abs(lhs - rhs).max() < 1e-12


class TestGenJordan:
    def test_recovers_standard_product(self, rng):
        f = random_channel(rng, 2)
        g = random_channel(rng, 2)
        via_a = gen_jordan(f.rep, g.rep, a_jp(2))
        std = jordan_channel(f.rep, g.rep)
        assert np.abs(via_a.choi.array - std.choi.array).max() < 1e-13

    def test_anchored_operator_keeps_marginals(self):
        arr = a_jp(2).matrix.array + np.kron(np.eye(2), np.kron(SZ, SZ))
        op = GenJordanOperator(HermitianMatrix(arr, TensorShape((2, 2, 2))))
        om = depolarizing_channel(2).rep
        out = gen_jordan(om, om, op)
        dims = (2, 2, 2)
        assert np.abs(ptrace_array(out.choi.array, dims, [2]) - om.choi.array).max() < 1e-12
        assert np.abs(ptrace_array(out.choi.array, dims, [1]) - om.choi.array).max() < 1e-12

    def test_anchored_operator_changes_identity_product(self):
        arr = a_jp(2).matrix.array + np.kron(np.eye(2), np.kron(SZ, SZ))
        op = GenJordanOperator(HermitianMatrix(arr, TensorShape((2, 2, 2))))
        ident = identity_channel(2).rep
        out = gen_jordan(ident, ident, op)
        std = jordan_channel(ident, ident)
        assert np.abs(out.choi.array - arr).max() < 1e-14
        assert np.abs(out.choi.array - std.choi.array).max() > 0.5

    def test_roundtrip_from_sdp_compatibilizer(self):
        from qcc.sdp.decide import decide

        for f in (xi_channel(0.1, 0.5), xi_channel(0.0, 0.5)):
            dec = decide(f, f)
            assert dec.verdict == "Compatible"
            factors = dec.compatibilizer.shape.factors
            comp = Channel.from_choi(dec.compatibilizer.array, 2, factors[1:])
            op = gen_jordan_from_compatibilizer(f, f, comp)
            back = gen_jordan(f.rep, f.rep, op)
            assert np.abs(back.choi.array - comp.choi.array).max() < 1e-7

    def test_roundtrip_from_complex_compatibilizer(self):
        # a real pair, a compatibilizer with an imaginary part of zero
        # marginals; the optimum's compatibilizer is interior, so the
        # perturbation keeps it completely positive
        from qcc.sdp.decide import decide

        f = xi_channel(0.1, 0.5)
        x = decide(f, f, optimum=True).compatibilizer.array
        isy = np.array([[0.0, 1.0], [-1.0, 0.0]])
        comp = Channel.from_choi(x + 0.05j * np.kron(np.eye(2), np.kron(isy, SZ)), 2, (2, 2))
        op = gen_jordan_from_compatibilizer(f, f, comp)
        back = gen_jordan(f.rep, f.rep, op)
        assert np.abs(back.choi.array - comp.choi.array).max() < 1e-7

    def test_singular_map_rejected(self):
        deph = dephasing_channel(2)
        comp = Channel(jordan_channel(deph.rep, deph.rep))
        with pytest.raises(SingularMapError):
            gen_jordan_from_compatibilizer(deph, deph, comp)


class TestAlgebraicProperties:
    def test_bilinearity(self, rng):
        for _ in range(100):
            f1 = random_channel(rng, 2).rep
            f2 = random_channel(rng, 2).rep
            g = random_channel(rng, 2).rep
            alpha, beta = rng.normal(size=2)
            lhs = alpha * jordan_channel(f1, g).choi.array + beta * jordan_channel(f2, g).choi.array
            mixed_arr = alpha * f1.choi.array + beta * f2.choi.array
            from qcc.channels import LinearMapRep

            mixed = LinearMapRep.from_choi(mixed_arr, 2)
            assert np.abs(jordan_channel(mixed, g).choi.array - lhs).max() < 1e-10
            rhs = alpha * jordan_channel(g, f1).choi.array + beta * jordan_channel(g, f2).choi.array
            assert np.abs(jordan_channel(g, mixed).choi.array - rhs).max() < 1e-10

    def test_factor_exchange_swap(self, rng):
        for _ in range(100):
            f = random_channel(rng, 2, 2).rep
            g = random_channel(rng, 2, 3).rep
            fg = jordan_channel(f, g).choi.array.reshape(2, 2, 3, 2, 2, 3)
            gf = jordan_channel(g, f).choi.array
            swapped = np.ascontiguousarray(fg.transpose(0, 2, 1, 3, 5, 4)).reshape(12, 12)
            assert np.abs(gf - swapped).max() < 1e-12

    def test_composition_covariance(self, rng):
        for _ in range(100):
            f = random_channel(rng, 2).rep
            g = random_channel(rng, 2).rep
            psi1 = random_channel(rng, 2, 3).rep
            psi2 = random_channel(rng, 2).rep
            lhs = compose(tensor(psi1, psi2), jordan_channel(f, g))
            rhs = jordan_channel(compose(psi1, f), compose(psi2, g))
            assert np.abs(lhs.choi.array - rhs.choi.array).max() < 1e-9

    def test_trace_preserving_marginals(self, rng):
        # spec invariant at 1000 instances
        dims = (2, 2, 2)
        for _ in range(1000):
            f = random_channel(rng, 2)
            g = random_channel(rng, 2)
            prod = jordan_channel(f.rep, g.rep)
            arr = prod.choi.array
            assert np.abs(ptrace_array(arr, dims, [2]) - f.choi.array).max() < 1e-10
            assert np.abs(ptrace_array(arr, dims, [1]) - g.choi.array).max() < 1e-10
            assert np.abs(ptrace_array(arr, dims, [1, 2]) - np.eye(2)).max() < 1e-10

    def test_measure_prepare_formula(self, rng):
        for _ in range(100):
            mp1 = random_mp_channel(rng, 2, 2, 2)
            mp2 = random_mp_channel(rng, 2, 3, 2)
            c1 = measure_prepare_channel(mp1)
            c2 = measure_prepare_channel(mp2)
            prod = jordan_channel(c1.rep, c2.rep).choi.array
            expected = np.zeros_like(prod)
            for m, rho in zip(mp1.povm.effects, mp1.preps):
                for n, sig in zip(mp2.povm.effects, mp2.preps):
                    jm = (m @ n + n @ m) / 2
                    expected += np.kron(np.kron(jm.T, rho), sig)
            assert np.abs(prod - expected).max() < 1e-10

    def test_unitary_with_nonconstant_is_never_cp(self, rng):
        for _ in range(100):
            u = haar_unitary(rng, 2)
            psi = random_channel(rng, 2)
            # reject near-constant draws (their Choi is close to I (x) rho)
            marg = ptrace_array(psi.choi.array, (2, 2), [0])
            if np.abs(psi.choi.array - np.kron(np.eye(2), marg / 2)).max() < 1e-6:
                continue
            prod = jordan_channel(unitary_channel(u).rep, psi.rep)
            assert np.linalg.eigvalsh(prod.choi.array).min() < -1e-10

    def test_convexity_in_first_argument(self, rng):
        found = 0
        while found < 100:
            g = random_channel(rng, 2)
            rho1 = random_density(rng, 2)
            rho2 = random_density(rng, 2)
            # products with constant channels are CP, giving a supply of
            # CP-product pairs to mix
            f1 = constant_channel(rho1, 2)
            f2 = constant_channel(rho2, 2)
            j1 = jordan_channel(f1.rep, g.rep)
            j2 = jordan_channel(f2.rep, g.rep)
            assert np.linalg.eigvalsh(j1.choi.array).min() >= -1e-10
            assert np.linalg.eigvalsh(j2.choi.array).min() >= -1e-10
            for lam in (0.25, 0.5, 0.75):
                mixed = mix(f1.rep, f2.rep, lam)
                out = jordan_channel(mixed, g.rep)
                assert np.linalg.eigvalsh(out.choi.array).min() >= -1e-10
            found += 1


class TestPvmEquivalence:
    def test_three_way_equivalence(self, rng):
        # CP(product) <=> solver compatibility <=> invariance under pinching
        hits = {True: 0, False: 0}
        for trial in range(100):
            pvm = random_pvm(rng, 2)
            meas = measurement_channel(pvm)
            pinch = pinching_channel(pvm)
            if trial % 2 == 0:
                phi = random_channel(rng, 2)
            else:
                phi = Channel(compose(random_channel(rng, 2).rep, pinch.rep))
            prod_cp = bool(
                np.linalg.eigvalsh(jordan_channel(phi.rep, meas.rep).choi.array).min() >= -1e-7
            )
            out = sdp.solve(sdp.build_compat(phi, meas))
            compat = out.status == "Feasible"
            invariant = bool(
                np.abs(compose(phi.rep, pinch.rep).choi.array - phi.choi.array).max() <= 1e-7
            )
            assert prod_cp == compat == invariant
            hits[prod_cp] += 1
        assert hits[True] >= 10 and hits[False] >= 10



@pytest.mark.parametrize("call, message", [
    (lambda: GenJordanOperator(HermitianMatrix(np.eye(8), TensorShape((2, 4)))),
     "expected shape [d, d, d], got (2, 4)"),
    (lambda: verify_gen_jordan_operator(a_jp(2).matrix, identity_channel(2), identity_channel(3)),
     "operator shape (2, 2, 2) does not match inputs (2, 3)"),
    (lambda: jordan_matrix(np.eye(2), np.eye(3)), "operands must have the same side"),
    (lambda: a_jp(0), "dimension must be >= 1"),
    (lambda: gen_jordan(identity_channel(3).rep, identity_channel(3).rep, a_jp(2)),
     "map input dimensions must match the operator"),
    (lambda: jordan_channel(identity_channel(2).rep, identity_channel(3).rep),
     "maps must share the input space"),
    (lambda: gen_jordan_from_compatibilizer(identity_channel(2), identity_channel(2), identity_channel(2)),
     "dimension mismatch between channels and compatibilizer"),
    # the constant channel I/4 on two qubits has marginals I/2, not the identity
    (lambda: gen_jordan_from_compatibilizer(
        identity_channel(2), identity_channel(2),
        Channel.from_choi(np.kron(np.eye(2), np.eye(4) / 4), 2, (2, 2))),
     "channel is not a compatibilizer of the pair (deviation 1.000e+00)"),
], ids=["operator_shape", "verify_shape", "operand_sides", "a_jp_dim", "map_dims", "input_spaces",
        "compatibilizer_dims", "not_a_compatibilizer"])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
