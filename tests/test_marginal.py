import numpy as np
import pytest

from qcc import sdp
from qcc.channels import (
    Channel,
    Povm,
    apply_array,
    dephasing_channel,
    measure_prepare_channel,
    measurement_channel,
    pinching_channel,
)
from qcc.jordan import jordan_channel
from qcc.linalg import HermitianMatrix, TensorShape, ptrace_array
from qcc.marginal import (
    StatePair,
    _complete_projectors,
    compatibilizer_from_joint_state,
    extract_povm_compatibilizer,
    instrument_from_compatibilizer,
    joint_state_from_compatibilizer,
    lift_povm_compatibilizer,
    states_to_channels,
)
from qcc.rand import random_channel, random_density, random_hermitian, random_povm, random_state_pair
from qcc.sdp.decide import decide

E00 = np.diag([1.0, 0.0])
E11 = np.diag([0.0, 1.0])


def hm(arr, factors):
    return HermitianMatrix(arr, TensorShape(factors))


class TestStatePair:
    def test_marginal_mismatch_rejected(self, rng):
        rho1 = random_density(rng, 4)
        rho2 = random_density(rng, 4)
        sigma = ptrace_array(rho1, (2, 2), [1])
        with pytest.raises(ValueError, match="disagree"):
            StatePair(hm(rho1, (2, 2)), hm(rho2, (2, 2)), hm(sigma, (2,)))

    def test_non_density_rejected(self):
        good = np.eye(4) / 4
        with pytest.raises(ValueError, match="unit trace"):
            StatePair(hm(np.eye(4), (2, 2)), hm(good, (2, 2)), hm(np.eye(2) / 2, (2,)))


class TestStatesToChannels:
    def test_maximally_mixed_gives_depolarizing(self):
        sp = StatePair(hm(np.eye(4) / 4, (2, 2)), hm(np.eye(4) / 4, (2, 2)),
                       hm(np.eye(2) / 2, (2,)))
        f, g = states_to_channels(sp)
        assert np.abs(f.choi.array - np.eye(4) / 2).max() < 1e-12
        assert np.abs(g.choi.array - np.eye(4) / 2).max() < 1e-12

    def test_rank_deficient_hand_expansion(self):
        rho = np.kron(E00, E00)
        sp = StatePair(hm(rho, (2, 2)), hm(rho, (2, 2)), hm(E00, (2,)))
        f, _ = states_to_channels(sp)
        expected = np.kron(E00, E00) + np.kron(E11, np.eye(2)) / 2
        assert np.abs(f.choi.array - expected).max() < 1e-12

    def test_entangled_state_gives_identity_and_no_broadcast(self):
        j_id = np.zeros((4, 4))
        for i in range(2):
            for k in range(2):
                j_id[i * 2 + i, k * 2 + k] = 1.0
        sp = StatePair(hm(j_id / 2, (2, 2)), hm(j_id / 2, (2, 2)), hm(np.eye(2) / 2, (2,)))
        f, g = states_to_channels(sp)
        assert np.abs(f.choi.array - j_id).max() < 1e-12
        assert decide(f, g).verdict == "Incompatible"


class TestJointStateRoundTrips:
    def test_maximally_mixed_joint(self):
        sp = StatePair(hm(np.eye(4) / 4, (2, 2)), hm(np.eye(4) / 4, (2, 2)),
                       hm(np.eye(2) / 2, (2,)))
        f, g = states_to_channels(sp)
        dec = decide(f, g)
        assert dec.verdict == "Compatible"
        comp = Channel.from_choi(dec.compatibilizer.array, 2, (2, 2))
        rho = joint_state_from_compatibilizer(comp, sp.sigma)
        dims = (2, 2, 2)
        assert np.abs(ptrace_array(rho.array, dims, [2]) - np.eye(4) / 4).max() < 1e-7
        assert np.abs(ptrace_array(rho.array, dims, [1]) - np.eye(4) / 4).max() < 1e-7

    def test_known_joint_marginals_recovered(self, rng):
        for _ in range(20):
            sp, joint = random_state_pair(rng, 2, 2, 2)
            comp = compatibilizer_from_joint_state(joint, sp.sigma)
            rho = joint_state_from_compatibilizer(comp, sp.sigma)
            dims = (2, 2, 2)
            assert np.linalg.eigvalsh(rho.array).min() >= -1e-9
            assert np.abs(ptrace_array(rho.array, dims, [2]) - sp.rho1.array).max() < 1e-7
            assert np.abs(ptrace_array(rho.array, dims, [1]) - sp.rho2.array).max() < 1e-7

    def test_product_case(self, rng):
        tau_x = random_density(rng, 2)
        tau1 = random_density(rng, 2)
        tau2 = random_density(rng, 2)
        joint = hm(np.kron(tau_x, np.kron(tau1, tau2)), (2, 2, 2))
        comp = compatibilizer_from_joint_state(joint, hm(tau_x, (2,)))
        rho = joint_state_from_compatibilizer(comp, hm(tau_x, (2,)))
        assert np.abs(rho.array - joint.array).max() < 1e-9

    def test_trivial_full_mixing(self):
        # maximally mixed joint state -> the constant channel onto I/4
        rho = hm(np.eye(8) / 8, (2, 2, 2))
        comp = compatibilizer_from_joint_state(rho, hm(np.eye(2) / 2, (2,)))
        assert np.abs(comp.choi.array - np.eye(8) / 4).max() < 1e-12
        x = np.array([[0.2, 0.1], [0.1, 0.8]])
        assert np.abs(apply_array(comp.rep, x) - np.trace(x) * np.eye(4) / 4).max() < 1e-12

    def test_rank_deficient_completion_term(self, rng):
        tau1 = random_density(rng, 2)
        tau2 = random_density(rng, 2)
        joint = hm(np.kron(E00, np.kron(tau1, tau2)), (2, 2, 2))
        comp = compatibilizer_from_joint_state(joint, hm(E00, (2,)))
        expected = np.kron(E00, np.kron(tau1, tau2)) + np.kron(E11, np.eye(4)) / 4
        assert np.abs(comp.choi.array - expected).max() < 1e-12

    def test_full_rank_roundtrip_identity(self, rng):
        for _ in range(100):
            sp, joint = random_state_pair(rng, 2, 2, 2)
            comp = compatibilizer_from_joint_state(joint, sp.sigma)
            back = joint_state_from_compatibilizer(comp, sp.sigma)
            assert np.abs(back.array - joint.array).max() < 1e-8

    def test_rank_deficient_roundtrip(self, rng):
        # the absorption argument is what makes the singular-overlap case work
        for _ in range(100):
            sp, joint = random_state_pair(rng, 3, 2, 2, sigma_rank=2)
            comp = compatibilizer_from_joint_state(joint, sp.sigma)
            back = joint_state_from_compatibilizer(comp, sp.sigma)
            assert np.abs(back.array - joint.array).max() < 1e-7

    def test_sigma_mismatch_rejected(self, rng):
        rho = hm(np.eye(8) / 4, (2, 2, 2))
        with pytest.raises(ValueError, match="marginal"):
            compatibilizer_from_joint_state(rho, hm(E00, (2,)))


class TestStateChannelEquivalence:
    def test_both_directions(self, rng):
        # compatible states <-> compatible constructed channels
        checked = 0
        trials = 0
        while checked < 200 and trials < 600:
            trials += 1
            rank = None if trials % 2 == 0 else 1
            if trials % 3 == 0:
                # same random state on both slots: compatible iff it has a
                # symmetric extension, a mixed population
                rho1 = random_density(rng, 4)
                sigma = ptrace_array(rho1, (2, 2), [1])
                sp = StatePair(hm(rho1, (2, 2)), hm(rho1, (2, 2)), hm(sigma, (2,)))
            else:
                sp, _ = random_state_pair(rng, 2, 2, 2, sigma_rank=rank)
            state_out = sdp.solve(sdp.build_state_compat(sp.rho1, sp.rho2))
            f, g = states_to_channels(sp)
            chan_out = sdp.solve(sdp.build_compat(f, g))
            if min(abs(state_out.value), abs(chan_out.value)) < 1e-6:
                continue  # too close to the common boundary to compare signs
            assert state_out.status == chan_out.status
            checked += 1
        assert checked >= 200


class TestPovmLevel:
    def _compatible_povm_pair(self, rng, d=2, ni=2, nj=2):
        joint = random_povm(rng, d, ni * nj)
        parts = [[joint.effects[i * nj + j] for j in range(nj)] for i in range(ni)]
        m = [sum(row) for row in parts]
        n = [sum(parts[i][j] for i in range(ni)) for j in range(nj)]
        return parts, m, n

    def test_lift_trivial_dephasing(self):
        parts = [[np.kron(E00, np.ones((1, 1))).reshape(2, 2) * 0 + np.diag([1.0, 0]), np.zeros((2, 2))],
                 [np.zeros((2, 2)), np.diag([0.0, 1.0])]]
        preps = [E00, E11]
        comp = lift_povm_compatibilizer(parts, preps, preps)
        deph = dephasing_channel(2)
        dims = (2, 2, 2)
        assert np.abs(ptrace_array(comp.choi.array, dims, [2]) - deph.choi.array).max() < 1e-12

    def test_lift_commuting_povms(self, rng):
        diag1 = np.sort(rng.uniform(size=2))
        m = Povm((np.diag(diag1), np.eye(2) - np.diag(diag1)))
        diag2 = np.sort(rng.uniform(size=2))
        n = Povm((np.diag(diag2), np.eye(2) - np.diag(diag2)))
        parts = [[a @ b for b in n.effects] for a in m.effects]
        preps1 = [random_density(rng, 2) for _ in range(2)]
        preps2 = [random_density(rng, 2) for _ in range(2)]
        comp = lift_povm_compatibilizer(parts, preps1, preps2)
        f = measure_prepare_channel(
            __import__("qcc.channels", fromlist=["MeasurePrepare"]).MeasurePrepare(m, tuple(preps1))
        )
        dims = (2, 2, 2)
        assert np.abs(ptrace_array(comp.choi.array, dims, [2]) - f.choi.array).max() < 1e-9

    def test_lift_coarse_side(self, rng):
        # trivial POVM {I} on one side: compatibilizer factorizes
        n = random_povm(rng, 2, 2)
        parts = [[n.effects[0], n.effects[1]]]
        prep1 = [random_density(rng, 2)]
        preps2 = [random_density(rng, 2) for _ in range(2)]
        comp = lift_povm_compatibilizer(parts, prep1, preps2)
        dims = (2, 2, 2)
        marg = ptrace_array(comp.choi.array, dims, [2])
        assert np.abs(marg - np.kron(np.eye(2), prep1[0])).max() < 1e-12

    def test_lifted_channels_compatible(self, rng):
        # POVM compatibility implies compatibility of the generated channels
        for _ in range(30):
            parts, m, n = self._compatible_povm_pair(rng)
            preps1 = [random_density(rng, 2) for _ in range(2)]
            preps2 = [random_density(rng, 2) for _ in range(2)]
            comp = lift_povm_compatibilizer(parts, preps1, preps2)
            from qcc.channels import MeasurePrepare

            f = measure_prepare_channel(MeasurePrepare(Povm(tuple(m)), tuple(preps1)))
            g = measure_prepare_channel(MeasurePrepare(Povm(tuple(n)), tuple(preps2)))
            dims = (2, 2, 2)
            assert np.abs(ptrace_array(comp.choi.array, dims, [2]) - f.choi.array).max() < 1e-9
            assert np.abs(ptrace_array(comp.choi.array, dims, [1]) - g.choi.array).max() < 1e-9

    def test_extract_from_dephasing_compatibilizer(self):
        deph = dephasing_channel(2)
        prod = jordan_channel(deph.rep, deph.rep)
        comp = Channel.from_choi(prod.choi.array, 2, (2, 2))
        parts = extract_povm_compatibilizer(comp, [E00, E11], [E00, E11])
        for i in range(2):
            for j in range(2):
                expected = np.diag([float(i == 0 and j == 0), float(i == 1 and j == 1)])
                assert np.abs(parts[i][j] - expected).max() < 1e-10

    def test_family_short_of_the_identity_is_completed(self):
        # one projector on C^2 gets I - P appended; a family that resolves
        # the identity gets nothing
        completed = _complete_projectors([E00], 2)
        assert len(completed) == 2 and np.array_equal(completed[1], E11)
        assert len(_complete_projectors([E00, E11], 2)) == 2
        deph = dephasing_channel(2)
        comp = Channel.from_choi(jordan_channel(deph.rep, deph.rep).choi.array, 2, (2, 2))
        parts = extract_povm_compatibilizer(comp, [E00], [E00, E11])
        full = extract_povm_compatibilizer(comp, [E00, E11], [E00, E11])
        assert all(np.array_equal(a, b) for row, full_row in zip(parts, full)
                   for a, b in zip(row, full_row))

    def test_extract_roundtrip_marginals(self, rng):
        # distinguishable preparations: the extracted joint POVM has the
        # generating POVMs as its margins
        for _ in range(20):
            parts, m, n = self._compatible_povm_pair(rng)
            preps1 = [E00, E11]
            preps2 = [E00, E11]
            comp = lift_povm_compatibilizer(parts, preps1, preps2)
            extracted = extract_povm_compatibilizer(comp, [E00, E11], [E00, E11])
            for i in range(2):
                row = sum(extracted[i][j] for j in range(len(extracted[0])))
                assert np.abs(row - m[i]).max() < 1e-9
            for j in range(2):
                col = sum(extracted[i][j] for i in range(len(extracted)))
                assert np.abs(col - n[j]).max() < 1e-9

    def test_extract_constant_compatibilizer(self, rng):
        from qcc.channels import constant_channel

        rho = np.eye(2) / 2
        comp0 = constant_channel(np.kron(rho, rho), 2)
        comp = Channel.from_choi(comp0.choi.array, 2, (2, 2))
        parts = extract_povm_compatibilizer(comp, [E00, E11], [E00, E11])
        for i in range(2):
            for j in range(2):
                assert np.abs(parts[i][j] - np.eye(2) * 0.25).max() < 1e-10

    def test_extract_rejects_non_orthogonal(self, rng):
        comp = Channel.from_choi(np.eye(8) / 4, 2, (2, 2))
        with pytest.raises(ValueError, match="orthogonal|projector"):
            extract_povm_compatibilizer(comp, [np.eye(2) / 2, np.eye(2) / 2], [E00, E11])

    def test_povm_channel_equivalence_distinguishable(self, rng):
        # with distinguishable preparations the two notions coincide
        sz = np.diag([1.0, -1.0])
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        for eta in (0.3, 0.5, 0.8, 0.95):
            m = Povm(((np.eye(2) + eta * sz) / 2, (np.eye(2) - eta * sz) / 2))
            n = Povm(((np.eye(2) + eta * sx) / 2, (np.eye(2) - eta * sx) / 2))
            povm_out = sdp.solve(sdp.build_povm_compat(m, n))
            f = measurement_channel(m)
            g = measurement_channel(n)
            chan_out = sdp.solve(sdp.build_compat(f, g))
            assert povm_out.status == chan_out.status
        # and on random POVM pairs, both ways
        checked = 0
        while checked < 30:
            m = random_povm(rng, 2, 2)
            n = random_povm(rng, 2, 2)
            povm_out = sdp.solve(sdp.build_povm_compat(m, n))
            chan_out = sdp.solve(sdp.build_compat(measurement_channel(m),
                                                  measurement_channel(n)))
            if min(abs(povm_out.value), abs(chan_out.value)) < 1e-6:
                continue
            assert povm_out.status == chan_out.status
            checked += 1


class TestInstrument:
    def test_pinching_measurement_branches(self):
        pvm = Povm((E00, E11))
        pinch = pinching_channel(pvm)
        meas = measurement_channel(pvm)
        prod = jordan_channel(pinch.rep, meas.rep)
        comp = Channel.from_choi(prod.choi.array, 2, (2, 2))
        branches = instrument_from_compatibilizer(comp, 2)
        for i, (b, proj) in enumerate(zip(branches, (E00, E11))):
            x = random_hermitian(np.random.default_rng(i), 2)
            assert np.abs(apply_array(b, x) - proj @ x @ proj).max() < 1e-12

    def test_single_outcome_is_marginal(self, rng):
        c = random_channel(rng, 2, 3)
        comp = Channel.from_choi(c.choi.array, 2, (3, 1))
        branches = instrument_from_compatibilizer(comp, 1)
        assert len(branches) == 1
        assert np.abs(branches[0].choi.array - c.choi.array).max() < 1e-12

    def test_branch_traces_read_out_the_povm(self, rng):
        for _ in range(20):
            m = random_povm(rng, 2, 3)
            meas = measurement_channel(m)
            phi = random_channel(rng, 2)
            dec = decide(phi, meas)
            if dec.verdict != "Compatible":
                psi = random_channel(rng, 2)
                from qcc.channels import MeasurePrepare

                preps = tuple(random_density(rng, 2) for _ in range(3))
                comp_choi = sum(
                    np.kron(np.kron(m.effects[i].T, preps[i]), np.diag(np.eye(3)[i]))
                    for i in range(3)
                )
                comp = Channel.from_choi(comp_choi, 2, (2, 3))
            else:
                comp = Channel.from_choi(dec.compatibilizer.array, 2, (2, 3))
            branches = instrument_from_compatibilizer(comp, 3)
            total = sum(b.choi.array for b in branches)
            dims = (2, 2, 3)
            assert np.abs(total - ptrace_array(comp.choi.array, dims, [2])).max() < 1e-9
            for i, b in enumerate(branches):
                x = random_hermitian(rng, 2)
                tr = np.trace(apply_array(b, x))
                expected = np.tensordot(m.effects[i].conj(), x, axes=2)
                assert abs(tr - expected) < 1e-7

    def test_dimension_mismatch(self):
        comp = Channel.from_choi(np.eye(8) / 4, 2, (2, 2))
        with pytest.raises(ValueError, match="register"):
            instrument_from_compatibilizer(comp, 3)
