import json

import numpy as np
import pytest

from qcc import channels, reference
from qcc.channels import (
    Channel,
    LinearMapRep,
    MeasurePrepare,
    Povm,
    SingularMapError,
    _matrix_from_json,
    _matrix_to_json,
    apply,
    apply_array,
    apply_adjoint_array,
    apply_to_factors,
    channel_from_json,
    channel_marginal,
    channel_to_json,
    compose,
    constant_channel,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    invert_map,
    measure_prepare_channel,
    measure_prepare_decomposition,
    measurement_channel,
    partial_depolarizing_channel,
    pinching_channel,
    tensor,
    transpose_map,
    unitary_channel,
    validate,
    xi_channel,
)
from qcc.linalg import (HermitianMatrix, herm_to_vec, hermitian_basis, ptrace_array, ptranspose_array,
                        vec_to_herm)
from qcc.rand import (haar_unitary, random_channel, random_density, random_hermitian,
                      random_invertible_channel, random_mp_channel, random_pvm)

E00 = np.diag([1.0, 0.0])
E11 = np.diag([0.0, 1.0])
PSI = haar_unitary(np.random.default_rng(1), 2)[:, 0]
J_ID = np.array([[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=float)


class TestConstructors:
    def test_identity_choi(self):
        assert np.array_equal(identity_channel(2).choi.array, J_ID)

    def test_depolarizing_choi(self):
        assert np.array_equal(depolarizing_channel(2).choi.array, np.eye(4) / 2)

    def test_dephasing_choi(self):
        assert np.array_equal(dephasing_channel(2).choi.array, np.diag([1.0, 0, 0, 1.0]))

    def test_xi_linear_combination_oracle(self):
        out = xi_channel(0.0, 1.0 / 3.0).choi.array
        assert np.abs(out - ((2 / 3) * J_ID + np.eye(4) / 6)).max() < 1e-15

    def test_xi_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            xi_channel(0.7, 0.7)

    def test_unitary_action(self, rng):
        u = haar_unitary(rng, 3)
        c = unitary_channel(u)
        x = random_hermitian(rng, 3)
        assert np.abs(apply_array(c.rep, x) - u @ x @ u.conj().T).max() < 1e-12

    def test_unitary_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            unitary_channel(np.diag([1.0, 2.0]))

    def test_constant_channel(self, rng):
        rho = random_density(rng, 2)
        c = constant_channel(rho, 3)
        x = random_hermitian(rng, 3)
        assert np.abs(apply_array(c.rep, x) - np.trace(x) * rho).max() < 1e-12

    def test_pinching_action(self, rng):
        pvm = random_pvm(rng, 3, ranks=(2, 1))
        c = pinching_channel(pvm)
        x = random_hermitian(rng, 3)
        expected = sum(p @ x @ p for p in pvm.effects)
        assert np.abs(apply_array(c.rep, x) - expected).max() < 1e-12

    def test_pinching_rejects_non_projective(self, rng):
        povm = Povm((np.eye(2) * 0.5, np.eye(2) * 0.5))
        with pytest.raises(ValueError, match="projection"):
            pinching_channel(povm)

    def test_measurement_channel_probabilities(self, rng):
        povm = Povm((np.diag([0.7, 0.2]), np.diag([0.3, 0.8])))
        c = measurement_channel(povm)
        rho = random_density(rng, 2)
        out = apply_array(c.rep, rho)
        probs = [np.trace(m @ rho) for m in povm.effects]
        assert np.abs(out - np.diag(probs)).max() < 1e-12


class TestMeasurePrepare:
    def test_reproduces_dephasing(self):
        mp = MeasurePrepare(Povm((E00, E11)), (E00, E11))
        assert np.array_equal(measure_prepare_channel(mp).choi.array, np.diag([1.0, 0, 0, 1.0]))

    def test_coarse_graining_gives_constant(self, rng):
        rho = random_density(rng, 2)
        mp = MeasurePrepare(Povm((np.eye(2) / 2, np.eye(2) / 2)), (rho, rho))
        c = measure_prepare_channel(mp)
        assert np.abs(c.choi.array - np.kron(np.eye(2), rho)).max() < 1e-12

    def test_decomposition_reproduces_reference_pair(self):
        for c in reference.channel_pair():
            mp = measure_prepare_decomposition(c.rep)
            back = measure_prepare_channel(mp)
            assert np.abs(back.choi.array - c.choi.array).max() < 1e-12

    def test_decomposition_roundtrip_random(self, rng):
        for _ in range(20):
            mp = random_mp_channel(rng, 2, 2, 3)
            c = measure_prepare_channel(mp)
            back = measure_prepare_channel(measure_prepare_decomposition(c.rep))
            assert np.abs(back.choi.array - c.choi.array).max() < 1e-10

    @pytest.mark.parametrize("channel", [
        constant_channel(E00, 2),
        constant_channel(np.outer(PSI, PSI.conj()), 2),
        measurement_channel(Povm((np.eye(2), np.zeros((2, 2))))),
    ], ids=["constant_pure", "constant_pure_rotated", "measurement_trivial"])
    def test_decomposition_completes_takagi_kernel(self, channel, monkeypatch):
        # a pure constant output leaves the Takagi factorization a kernel,
        # which it completes with zero values
        lams = []
        real = channels._takagi

        def spy(a):
            lam, u = real(a)
            lams.append(lam)
            return lam, u

        monkeypatch.setattr(channels, "_takagi", spy)
        back = measure_prepare_channel(measure_prepare_decomposition(channel.rep))
        assert np.abs(back.choi.array - channel.choi.array).max() < 1e-12
        assert any((lam == 0.0).any() for lam in lams)

    def test_decomposition_rejects_entangled(self):
        with pytest.raises(ValueError, match="PPT|entangled"):
            measure_prepare_decomposition(identity_channel(2).rep)

    def test_mp_channels_are_entanglement_breaking(self, rng):
        for _ in range(30):
            mp = random_mp_channel(rng, 2, 2, 4)
            c = measure_prepare_channel(mp)
            assert validate(c.rep).eb_2x2


class TestApplyValidate:
    def test_identity_apply(self, rng):
        x = HermitianMatrix(random_hermitian(rng, 2))
        out = apply(identity_channel(2).rep, x)
        assert np.abs(out.array - x.array).max() < 1e-14

    def test_depolarizing_on_basis_state(self):
        out = apply_array(depolarizing_channel(2).rep, E00)
        assert np.allclose(out, np.eye(2) / 2)

    def test_dephasing_formula_oracle(self):
        x = np.array([[0.3, 0.2 + 0.4j], [0.2 - 0.4j, 0.7]])
        out = apply_array(dephasing_channel(2).rep, x)
        assert np.abs(out - np.diag([0.3, 0.7])).max() < 1e-14

    def test_validate_reference_channel(self):
        _, g = reference.channel_pair()
        rep = validate(g.rep)
        assert rep.cp and rep.tp and rep.eb_2x2

    def test_validate_identity(self):
        rep = validate(identity_channel(2).rep)
        assert rep.cp and rep.tp and rep.unital

    def test_validate_report_fields(self):
        # every field of the report, on maps that pass or fail each check
        from qcc.jordan import jordan_channel

        amp = LinearMapRep.from_choi(np.diag([1.0, 0.0, 0.0, 0.0]) + 0.0j, 2)  # |0><0|(x)|0><0|
        cases = [
            (identity_channel(2).rep, (True, True, True, False, 0.0, 0.0)),
            (depolarizing_channel(2).rep, (True, True, True, True, 0.5, 0.0)),
            (jordan_channel(identity_channel(2).rep, dephasing_channel(2).rep),
             (False, True, False, None, (1 - np.sqrt(2)) / 2, 0.0)),
            (amp, (True, False, False, True, 0.0, 1.0)),
            (random_channel(np.random.default_rng(3), 2, 3).rep, (True, True, False, None, None, None)),
        ]
        for rep, (cp, tp, unital, eb, min_eig, tp_dev) in cases:
            report = validate(rep)
            assert (report.cp, report.tp, report.unital, report.eb_2x2) == (cp, tp, unital, eb)
            assert report.min_eig == float(np.linalg.eigvalsh(rep.choi.array).min())
            marg = ptrace_array(rep.choi.array, rep.dims, range(1, len(rep.dims)))
            assert report.tp_dev == float(np.abs(marg - np.eye(rep.d_in)).max())
            if min_eig is not None:
                assert abs(report.min_eig - min_eig) <= 1e-12
                assert abs(report.tp_dev - tp_dev) <= 1e-12

    def test_constructor_checks_only_cp_and_tp(self, monkeypatch):
        # Channel refuses a map with validate's messages, and never runs
        # the full report (unital, and at 2 x 2 the PPT test)
        from qcc.jordan import jordan_channel

        monkeypatch.setattr(channels, "validate", None)
        assert Channel(depolarizing_channel(2).rep).d_out == 2
        not_cp = jordan_channel(identity_channel(2).rep, dephasing_channel(2).rep)
        with pytest.raises(ValueError, match=r"^map is not completely positive \(min eig -2\.071e-01\)$"):
            Channel(not_cp)
        not_tp = LinearMapRep.from_choi(np.diag([1.0, 0.0, 0.0, 0.0]) + 0.0j, 2)
        with pytest.raises(ValueError, match=r"^map is not trace preserving \(marginal dev 1\.000e\+00\)$"):
            Channel(not_tp)

    def test_identity_dephasing_product_not_cp(self):
        from qcc.jordan import jordan_channel

        prod = jordan_channel(identity_channel(2).rep, dephasing_channel(2).rep)
        assert not validate(prod).cp

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("factor", [0, 1], ids=["first", "middle"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_transpose_map_is_the_partial_transpose(self, rng, d, factor, field):
        # the same entries, and so for its adjoint: the swap's transfer
        # tensor holds only 0s and 1s, so each entry is one term plus exact
        # zeros (which can turn a -0.0 entry into 0.0, equal to it)
        dims = (d, d, 2)
        n = 2 * d * d
        stack = rng.normal(size=(4, n, n))
        if field == "complex":
            stack = stack + 1j * rng.normal(size=(4, n, n))
        maps = [None, None, None]
        maps[factor] = transpose_map(d)
        want = ptranspose_array(stack, dims, factor)
        for adjoint in (False, True):
            got = apply_to_factors(stack, dims, maps, adjoint)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_transpose_map_is_built_once_per_dimension(self, rng):
        # every PPT build shares one read-only map, which still transposes
        first = transpose_map(3)
        assert transpose_map(3) is first and transpose_map(2) is not first
        assert not first.choi.array.flags.writeable
        stack = rng.normal(size=(3, 12, 12)) + 1j * rng.normal(size=(3, 12, 12))
        got = apply_to_factors(stack, (3, 2, 2), [first, None, None], False)
        assert np.array_equal(got, ptranspose_array(stack, (3, 2, 2), 0))

    def test_apply_trace_preserving(self, rng):
        for _ in range(50):
            c = random_channel(rng, 2, 3)
            x = random_hermitian(rng, 2)
            out = apply_array(c.rep, x)
            assert abs(np.trace(out) - np.trace(x)) < 1e-10

    def test_random_stinespring_channels_validate(self, rng):
        # spec invariant at 1000 instances
        for _ in range(1000):
            c = random_channel(rng, 2)
            rep = validate(c.rep)
            assert rep.cp and rep.tp


class TestComposeTensorMarginal:
    def test_compose_identity(self, rng):
        f = random_channel(rng, 2, 3)
        out = compose(identity_channel(3).rep, f.rep)
        assert np.abs(out.choi.array - f.choi.array).max() < 1e-12

    def test_compose_action_oracle(self, rng):
        f = random_channel(rng, 2, 3)
        g = random_channel(rng, 3, 2)
        comp = compose(g.rep, f.rep)
        for _ in range(10):
            x = random_hermitian(rng, 2)
            lhs = apply_array(comp, x)
            rhs = apply_array(g.rep, apply_array(f.rep, x))
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_tensor_action_oracle(self, rng):
        d = dephasing_channel(2).rep
        t = tensor(d, d)
        x = random_hermitian(rng, 2)
        y = random_hermitian(rng, 2)
        lhs = apply_array(t, np.kron(x, y))
        rhs = np.kron(apply_array(d, x), apply_array(d, y))
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_marginal_reference(self):
        f, g = reference.channel_pair()
        comp = reference.compatibilizer()
        assert np.abs(channel_marginal(comp, 1).choi.array - f.choi.array).max() == 0
        assert np.abs(channel_marginal(comp, 2).choi.array - g.choi.array).max() == 0

    def test_marginals_of_random_channel_are_channels(self, rng):
        for _ in range(20):
            big = random_channel(rng, 2, 4)
            c = Channel.from_choi(big.choi.array, 2, (2, 2))
            channel_marginal(c, 1)
            channel_marginal(c, 2)

    def test_adjoint_pairing(self, rng):
        f = random_channel(rng, 2, 3)
        x = random_hermitian(rng, 2)
        y = random_hermitian(rng, 3)
        lhs = np.tensordot(y.conj(), apply_array(f.rep, x), axes=2)
        rhs = np.tensordot(apply_adjoint_array(f.rep, y).conj(), x, axes=2)
        assert abs(lhs - rhs) < 1e-12


class TestInvertMap:
    def test_partial_depolarizing_inverse_formula(self):
        q = 0.5
        inv = invert_map(partial_depolarizing_channel(q, 2).rep)
        expected = (J_ID - q * np.eye(4) / 2) / (1 - q)
        assert np.abs(inv.choi.array - expected).max() < 1e-12

    def test_xi_inverse_formula(self):
        from qcc.analytic import XiParams, xi_inverse

        inv = invert_map(xi_channel(0.25, 0.25).rep)
        closed = xi_inverse(XiParams(0.25, 0.25))
        assert np.abs(inv.choi.array - closed.choi.array).max() < 1e-12

    @staticmethod
    def _loop_form(rep):
        """The map's matrix K on the Hermitian basis B, one basis image's
        coordinates per column, and the inverse's Choi matrix as a loop of
        Kronecker products, sum_a B_a^T (x) K^-1(B_a)."""
        d = rep.d_in
        basis = hermitian_basis(d)
        images = np.einsum("nxy,xyab->nab", basis, rep.transfer_tensor())
        k = np.array([herm_to_vec(img) for img in images]).T
        if np.linalg.svd(k, compute_uv=False)[-1] == 0:
            return k, None
        kinv = np.linalg.inv(k)
        return k, sum(np.kron(basis[a].T, vec_to_herm(kinv[:, a], d)) for a in range(d * d))

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_the_loop_form(self, d):
        rng = np.random.default_rng(30 + d)
        for _ in range(5):
            f = random_invertible_channel(rng, d)
            choi = self._loop_form(f.rep)[1]
            assert np.abs(invert_map(f.rep).choi.array - choi).max() <= 1e-13

    @pytest.mark.parametrize("channel", [dephasing_channel(2), partial_depolarizing_channel(1 - 5e-13, 3)],
                             ids=["dephasing", "near_singular"])
    def test_singular_error_names_the_smallest_singular_value(self, channel):
        smallest = np.linalg.svd(self._loop_form(channel.rep)[0], compute_uv=False)[-1]
        with pytest.raises(SingularMapError) as err:
            invert_map(channel.rep)
        assert abs(err.value.smallest_sv - smallest) <= 1e-15
        assert str(err.value) == ("map is singular or near-singular "
                                  f"(smallest singular value {err.value.smallest_sv:.3e})")

    def test_dephasing_is_singular(self):
        with pytest.raises(SingularMapError) as err:
            invert_map(dephasing_channel(2).rep)
        assert err.value.smallest_sv < 1e-14

    def test_roundtrip_and_involution(self, rng):
        count = 0
        while count < 20:
            f = random_channel(rng, 2)
            try:
                inv = invert_map(f.rep)
            except SingularMapError:
                continue
            count += 1
            roundtrip = compose(inv, f.rep)
            assert np.abs(roundtrip.choi.array - J_ID).max() < 1e-8
            again = invert_map(inv)
            assert np.abs(again.choi.array - f.choi.array).max() < 1e-7

    def test_inverse_of_tp_map_is_tp(self, rng):
        f = random_channel(rng, 2)
        inv = invert_map(f.rep)
        marg = ptrace_array(inv.choi.array, (2, 2), [1])
        assert np.abs(marg - np.eye(2)).max() < 1e-10


class TestChannelJson:
    def test_roundtrip(self, rng):
        c = random_channel(rng, 2, 3)
        data = json.loads(json.dumps(channel_to_json(c)))
        back = channel_from_json(data)
        assert np.abs(back.choi.array - c.choi.array).max() < 1e-15

    def test_output_factors_preserved(self):
        comp = reference.compatibilizer()
        back = channel_from_json(channel_to_json(comp))
        assert back.rep.output_factors == (2, 2)

    def test_hermiticity_rule_of_payloads(self):
        # every payload becomes a HermitianMatrix, whose bound
        # 1e-12 * max(1, max |M|) decides for entries up to 100; above
        # that the reader's own 1e-10 decides
        small = np.eye(2, dtype=complex)
        small[0, 1] = 5e-11
        arr = _matrix_from_json(_matrix_to_json(small))
        with pytest.raises(ValueError, match="not Hermitian: max"):
            HermitianMatrix(arr)
        big = 1000 * np.eye(2, dtype=complex)
        big[0, 1] = 5e-10
        HermitianMatrix(big)
        with pytest.raises(ValueError, match="not Hermitian within 1e-10"):
            _matrix_from_json(_matrix_to_json(big))

    def test_dimensions_are_whole_positive_numbers(self):
        data = channel_to_json(reference.compatibilizer())
        data["d_in"], data["output_factors"] = 2.0, [2.0, 2]
        back = channel_from_json(data)
        assert (back.d_in, back.rep.output_factors) == (2, (2, 2))
        assert type(back.d_in) is int
        for key, value in [("d_in", 2.5), ("d_out", float("inf")), ("d_in", 0), ("d_out", "4"),
                           ("d_in", True), ("output_factors", [2, float("nan")])]:
            with pytest.raises(ValueError, match=f"'{key}' must hold whole positive numbers"):
                channel_from_json({**data, key: value})

    def test_rejects_non_hermitian_payload(self):
        data = channel_to_json(identity_channel(2))
        data["choi"][0][1] = [0.5, 0.0]
        with pytest.raises(ValueError, match="Hermitian"):
            channel_from_json(data)
