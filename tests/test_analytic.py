import numpy as np
import pytest

from qcc import sdp
from qcc.analytic import (
    XiParams,
    depol_pair_compatible,
    qubit_self_compatible,
    xi_inverse,
    xi_k_threshold,
    xi_measure_prepare,
    xi_mp_threshold,
    xi_self_compatible,
    xi_self_threshold,
)
from qcc.channels import (
    compose,
    identity_channel,
    partial_depolarizing_channel,
    validate,
    xi_channel,
)
from qcc.jordan import jordan_channel
from qcc.rand import random_channel
from qcc.sdp.decide import decide


class TestXiParams:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            XiParams(-0.1, 0.5)
        with pytest.raises(ValueError):
            XiParams(0.6, 0.6)


class TestQubitSelfCompatible:
    def test_boundary_equality_case(self):
        j = partial_depolarizing_channel(1 / 3, 2).choi
        assert qubit_self_compatible(j)
        w = np.linalg.eigvalsh(j.array)
        assert np.allclose(np.sort(w), [1 / 6, 1 / 6, 1 / 6, 3 / 2], atol=1e-12)

    def test_identity_not_self_compatible(self):
        assert not qubit_self_compatible(identity_channel(2).choi)

    def test_agrees_with_solver_on_random_channels(self, rng):
        checked = 0
        while checked < 200:
            c = random_channel(rng, 2)
            out = sdp.solve(sdp.build_compat(c, c))
            if abs(out.value) < 1e-6:
                continue  # undecidable band around the boundary
            checked += 1
            assert qubit_self_compatible(c.choi) == (out.status == "Feasible")

    def test_rejects_invalid_choi(self):
        from qcc.linalg import HermitianMatrix, TensorShape

        bad = HermitianMatrix(np.eye(4), TensorShape((2, 2)))
        with pytest.raises(ValueError, match="trace preserving"):
            qubit_self_compatible(bad)


class TestXiRegions:
    def test_self_threshold_endpoints(self):
        assert xi_self_threshold(0.0) == pytest.approx(1 / 3, abs=1e-15)
        assert xi_self_compatible(XiParams(1.0, 0.0))

    def test_self_threshold_half(self):
        expected = (1.5 - np.sqrt(1.5)) / 3
        assert xi_self_threshold(0.5) == pytest.approx(expected, abs=1e-15)
        for dq in (-0.02, 0.02):
            q = expected + dq
            assert xi_self_compatible(XiParams(0.5, q)) == (dq > 0)
            assert qubit_self_compatible(xi_channel(0.5, q).choi) == (dq > 0)

    def test_mp_threshold(self):
        assert xi_mp_threshold(0.0) == pytest.approx(2 / 3, abs=1e-15)
        assert xi_measure_prepare(XiParams(1.0, 0.0))
        assert xi_measure_prepare(XiParams(0.4, 0.4))
        assert validate(xi_channel(0.4, 0.4).rep).eb_2x2

    def test_mp_matches_ppt_on_grid(self):
        for p in np.linspace(0, 1, 21):
            for q in np.linspace(0, 1, 21):
                if p + q > 1 or abs(q - xi_mp_threshold(p)) < 0.01:
                    continue
                analytic = xi_measure_prepare(XiParams(p, q))
                ppt = validate(xi_channel(p, q).rep).eb_2x2
                assert analytic == ppt, (p, q)


class TestXiKThreshold:
    def test_qubit_k2_is_the_self_threshold(self):
        assert xi_k_threshold(2, 2) == pytest.approx(xi_self_threshold(0.0), abs=1e-15)

    @pytest.mark.parametrize("d, k", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)])
    @pytest.mark.parametrize("optimum", [True, False], ids=["interior_point", "projection"])
    def test_both_modes_bracket_the_threshold(self, d, k, optimum):
        # Werner's cloner bound is exact: 1e-4 either side of it decides
        q = xi_k_threshold(d, k)
        for dq, status in ((-1e-4, "Infeasible"), (1e-4, "Feasible")):
            problem = sdp.build_k_extension(xi_channel(0.0, q + dq, d), k)
            assert sdp.solve(problem, optimum=optimum).status == status, dq


class TestDepolPair:
    def test_boundary_and_corners(self):
        assert depol_pair_compatible(1 / 3, 1 / 3)
        assert depol_pair_compatible(0.0, 1.0)
        assert not depol_pair_compatible(0.25, 0.25)

    def test_quarter_point_sdp_agrees(self):
        f = partial_depolarizing_channel(0.25, 2)
        assert decide(f, f).verdict == "Incompatible"

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            depol_pair_compatible(-0.2, 0.5)


class TestXiInverse:
    def test_identity_at_origin(self):
        inv = xi_inverse(XiParams(0.0, 0.0))
        assert np.abs(inv.choi.array - identity_channel(2).choi.array).max() < 1e-14

    def test_matches_depolarizing_inverse(self):
        from qcc.channels import invert_map

        inv = xi_inverse(XiParams(0.0, 0.5))
        direct = invert_map(partial_depolarizing_channel(0.5, 2).rep)
        assert np.abs(inv.choi.array - direct.choi.array).max() < 1e-12

    def test_roundtrip_identity(self):
        xp = XiParams(0.25, 0.25)
        inv = xi_inverse(xp)
        comp = compose(inv, xi_channel(0.25, 0.25).rep)
        assert np.abs(comp.choi.array - identity_channel(2).choi.array).max() < 1e-12

    def test_singular_boundary_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            xi_inverse(XiParams(0.5, 0.5))


class TestRegionNesting:
    def test_mp_implies_jordan_implies_self(self):
        # pointwise implications on a fine grid: measure-and-prepare region
        # inside the standard-product-CP region inside the self-compatible
        # region
        grid = np.linspace(0, 1, 101)
        seen = {"mp": 0, "jordan": 0, "self": 0}
        for p in grid:
            for q in grid:
                if p + q > 1 + 1e-12:
                    continue
                xp = XiParams(p, q)
                mp = xi_measure_prepare(xp)
                self_c = xi_self_compatible(xp)
                xi = xi_channel(p, q)
                jstd = bool(
                    np.linalg.eigvalsh(jordan_channel(xi.rep, xi.rep).choi.array).min()
                    >= -1e-10
                )
                if mp:
                    assert jstd, (p, q)
                if jstd:
                    assert self_c, (p, q)
                seen["mp"] += mp
                seen["jordan"] += jstd
                seen["self"] += self_c
        # strict inclusions: each region properly larger than the previous
        assert seen["mp"] < seen["jordan"] < seen["self"]

    def test_self_compat_agrees_with_jordan_decider_on_invertible_grid(self):
        # on the invertible parameter range the generalized-product decision
        # matches the closed form away from the boundary band
        grid = np.linspace(0, 1, 21)
        checked = 0
        for p in grid:
            for q in grid:
                if not (p > 0 and q > 0 and p + q < 1):
                    continue
                if abs(q - xi_self_threshold(p)) <= 0.005:
                    continue
                xi = xi_channel(p, q)
                dec = decide(xi, xi, "jordan")
                assert dec.verdict != "Inconclusive", (p, q)
                expected = xi_self_compatible(XiParams(p, q))
                assert (dec.verdict == "Compatible") == expected, (p, q)
                checked += 1
        assert checked > 150
