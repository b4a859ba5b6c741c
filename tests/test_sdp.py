import dataclasses
import functools
import itertools
import pickle
import re

import numpy as np
import pytest

from qcc import reference, sdp
from qcc.channels import (
    Channel,
    Povm,
    constant_channel,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    measurement_channel,
    mix_channels,
    partial_depolarizing_channel,
    validate,
    xi_channel,
)
from qcc.jordan import a_jp, gen_jordan, jordan_matrix
from qcc.linalg import (
    HermitianMatrix,
    TensorShape,
    embed_identity_array,
    herm_to_vec,
    hermitian_basis,
    ptrace_array,
    ptranspose_array,
    symmetric_basis,
    vec_to_herm,
)
from qcc.rand import (random_channel, random_density, random_hermitian, random_invertible_channel,
                      random_povm, random_pvm)
import qcc.sdp.decide as decide_mod
from qcc.sdp.decide import decide
from qcc.sdp.ipm import _block_inverses, _chol_pd, _chol_solve
from qcc.sdp.problem import (
    CONSTRAINT_RANK_TOL,
    Block,
    Constraint,
    SdpProblem,
    _constraint_matrix,
    _eliminate,
    _plan_key,
    _structure_of,
    compile_ipm,
    primal_failure,
)
from qcc.sdp.ipm import solve_ipm
from qcc.sdp.projection import ProjectionResult
from qcc.witness import (adjoint_sum, no_broadcast_witness, split_adjoint_pair, verify_jordan_witness,
                         verify_witness, witness_from_dual)


class TestSolveCompat:
    def test_constant_pair_feasible(self):
        om = depolarizing_channel(2)
        out = sdp.solve(sdp.build_compat(om, om))
        assert out.status == "Feasible"
        assert out.value > 0.1

    def test_identity_pair_infeasible(self):
        ident = identity_channel(2)
        out = sdp.solve(sdp.build_compat(ident, ident))
        assert out.status == "Infeasible"
        assert out.value == pytest.approx(-0.125, abs=1e-7)

    def test_reference_pair(self):
        f, g = reference.channel_pair()
        out = sdp.solve(sdp.build_compat(f, g))
        assert out.status == "Feasible" and out.value > 0
        comp = reference.compatibilizer()
        # the printed compatibilizer is itself a feasible point
        dims = (2, 2, 2)
        arr = comp.choi.array
        assert np.abs(ptrace_array(arr, dims, [2]) - f.choi.array).max() == 0
        assert np.linalg.eigvalsh(arr).min() > 0

    def test_reference_pair_ppt_infeasible(self):
        f, g = reference.channel_pair()
        out = sdp.solve(sdp.build_compat(f, g, ppt=True))
        assert out.status == "Infeasible"

    def test_dephasing_self_compatible(self):
        d = dephasing_channel(2)
        out = sdp.solve(sdp.build_compat(d, d))
        assert out.status == "Feasible"

    def test_depolarizing_boundary(self):
        o = partial_depolarizing_channel(1 / 3, 2)
        out = sdp.solve(sdp.build_compat(o, o))
        assert out.status == "Feasible"
        assert abs(out.value) < 1e-7

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            sdp.build_compat(identity_channel(2), identity_channel(3))

    def test_solver_cap(self):
        c = random_channel(np.random.default_rng(0), 4, 4)
        with pytest.raises(ValueError, match="cap"):
            sdp.solve(sdp.build_k_extension(c, 4))

    @pytest.mark.parametrize("k", [62, 63, 64])
    def test_solver_cap_beyond_int64(self, k):
        # an int64 product of the factors is -2**63 at k = 62 and 0 above,
        # below both caps
        problem = sdp.build_k_extension(identity_channel(2), k)
        assert problem.side == TensorShape(problem.factors).dim == 2 ** (k + 1)
        for mode in ("interior_point", "projection"):
            with pytest.raises(sdp.SizeCapError, match=str(2 ** (k + 1))):
                sdp.solve(problem, mode=mode)

    def test_redundancy_reported(self):
        # the two marginal families overlap in the marginal on the input
        # factor: 4 Hermitian directions, or 3 real symmetric ones on a
        # real program
        problem = sdp.build_compat(depolarizing_channel(2), depolarizing_channel(2))
        assert sdp.solve(problem).residuals["removed_redundant_rows"] == 3
        assert sdp.solve(phase_twin(problem)).residuals["removed_redundant_rows"] == 4


def phase_twin(problem):
    """The program conjugated by a fixed diagonal-phase unitary on each
    factor, X -> U X U^dag: complex right-hand sides for a real program,
    and the same optimum t (a partial transpose of U X U^dag is a unitary
    conjugate of the partial transpose of X)."""
    phases = [np.exp(1j * (0.7 + 0.4 * i) * np.arange(d)) for i, d in enumerate(problem.factors)]
    cons = []
    for con in problem.constraints:
        kept = [i for i in range(len(problem.factors)) if i not in con.traced]
        u = functools.reduce(np.kron, [phases[i] for i in kept])
        cons.append(Constraint(con.traced, u[:, None] * con.rhs * u.conj()[None, :]))
    return SdpProblem(problem.factors, tuple(cons), problem.blocks, problem.name)


def brute_force_constraint_matrix(problem):
    """K column by column: every basis element of X through every
    constraint's partial trace, in the coordinates of the constraint space,
    over the program's field."""
    basis = symmetric_basis(problem.side) if problem.real else hermitian_basis(problem.side)
    return np.vstack([herm_to_vec(ptrace_array(basis, problem.factors, con.traced), problem.real).T
                      for con in problem.constraints])


class TestConstraintMatrix:
    @pytest.mark.parametrize("kind", ["compat", "ppt", "jordan", "k4", "povm", "state"])
    def test_adjoint_rows_match_brute_force(self, kind):
        rng = np.random.default_rng(5)
        f = random_channel(rng, 2)
        g = random_channel(rng, 2, 3)
        if kind == "compat":
            problem = sdp.build_compat(f, g)
        elif kind == "ppt":
            problem = sdp.build_compat(f, g, ppt=True)
        elif kind == "jordan":
            problem = sdp.build_jordan_compat(random_channel(rng, 3), random_channel(rng, 3))
        elif kind == "k4":
            problem = sdp.build_k_extension(f, 4)
        elif kind == "povm":
            z = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
            plus = np.ones((2, 2)) / 2
            problem = sdp.build_povm_compat(z, Povm((plus, np.eye(2) - plus)))
        else:
            rho1 = HermitianMatrix(random_density(rng, 4), TensorShape((2, 2)))
            rho2 = HermitianMatrix(random_density(rng, 6), TensorShape((2, 3)))
            problem = sdp.build_state_compat(rho1, rho2)
        kmat = _constraint_matrix(*_plan_key(problem))
        assert np.abs(kmat - brute_force_constraint_matrix(problem)).max() <= 1e-15

    @pytest.mark.parametrize("mode", ["interior_point", "projection"])
    def test_inconsistent_equalities_rejected(self, mode):
        # the two marginals imply different traces of X
        problem = sdp.two_marginal_problem(np.eye(4), 2 * np.eye(4), (2, 2, 2))
        with pytest.raises(ValueError, match="equality constraints are inconsistent"):
            sdp.solve(problem, mode=mode)

    @pytest.mark.parametrize("mode", ["interior_point", "projection"])
    def test_term_side_mismatch_rejected(self, mode):
        con = Constraint((1,), np.eye(3, dtype=np.complex128))
        with pytest.raises(ValueError, match=r"constraint tracing \(1,\) leaves side 2, "
                                             r"rhs has shape \(3, 3\)"):
            sdp.solve(SdpProblem((2, 2), (con,), (Block(),)), mode=mode)

    @pytest.mark.parametrize("mode", ["interior_point", "projection"])
    @pytest.mark.parametrize("traced, side, blocks, message", [
        ((5,), 4, (Block(),), "traced index 5 out of range for 2 factors"),
        ((-1,), 4, (Block(),), "traced index -1 out of range for 2 factors"),
        ((1, 1), 2, (Block(),), r"traced indices \(1, 1\) repeat a factor"),
        ((1,), 2, (Block(), Block("ptranspose", factor=2)),
         "ptranspose factor 2 out of range for 2 factors"),
        ((1,), 2, (Block(), Block("ptranspose")), "ptranspose factor None out of range"),
    ], ids=["past_end", "negative", "repeated", "ptranspose_past_end", "ptranspose_unset"])
    def test_bad_index_rejected_when_built(self, mode, traced, side, blocks, message):
        # a bad index used to be dropped (projection found the program
        # feasible) or to fail inside numpy; the problem now refuses it
        con = Constraint(traced, np.eye(side) / side)
        with pytest.raises(ValueError, match=message):
            sdp.solve(SdpProblem((2, 2), (con,), blocks), mode=mode)

    @pytest.mark.parametrize("maps, count", [((None, "f"), 2), ((None, "f", "f", None), 4),
                                             (None, 0)], ids=["short", "long", "unset"])
    def test_map_image_needs_one_map_per_factor(self, maps, count):
        # a short tuple used to leave the last factors alone, and the
        # program solved to Infeasible
        rep = identity_channel(2).rep
        maps = None if maps is None else tuple(rep if m == "f" else None for m in maps)
        con = Constraint((1, 2), np.eye(2) / 2)
        block = Block("map_image", maps=maps)
        with pytest.raises(ValueError, match=f"map_image block 1 has {count} maps for 3 factors"):
            SdpProblem((2, 2, 2), (con,), (Block(), block))

    def test_blocks_of_different_sides_rejected(self):
        # the solver stacks the blocks on one array axis, so every image
        # has the side of the first
        widen = random_channel(np.random.default_rng(9), 2, 3).rep
        con = Constraint((1, 2), np.eye(2) / 2)
        block = Block("map_image", maps=(None, widen, None))
        with pytest.raises(ValueError, match="block 1 has image side 12, block 0 has 8"):
            SdpProblem((2, 2, 2), (con,), (Block(), block))
        assert SdpProblem((2, 2, 2), (con,), (block,)).blocks == (block,)


class TestStandardForm:
    """Programs whose one PSD block is X itself compile to standard
    form, with one Schur row per constraint dimension less the one that
    fixes t; the others keep the null-space form."""

    @pytest.mark.parametrize("kind, m", [("compat2", 27), ("compat3", 152), ("k4", 51),
                                         ("ppt3", 577), ("jordan3", 577)])
    def test_schur_size(self, kind, m):
        rng = np.random.default_rng(3)
        d = 2 if kind in ("compat2", "k4") else 3
        f, g = random_invertible_channel(rng, d), random_invertible_channel(rng, d)
        if kind == "k4":
            problem = sdp.build_k_extension(f, 4)
        elif kind == "jordan3":
            problem = sdp.build_jordan_compat(f, g)
        else:
            problem = sdp.build_compat(f, g, ppt=kind == "ppt3")
        assert compile_ipm(problem).m == m

    def test_trace_only_program_keeps_its_t_row(self):
        con = Constraint((0,), np.eye(1, dtype=np.complex128))
        out = sdp.solve(SdpProblem((2,), (con,), (Block(),)))
        assert out.status == "Feasible"
        assert abs(out.value - 0.5) <= 1e-8
        assert np.abs(out.primal - np.eye(2) / 2).max() <= 1e-8

    def test_feasible_k4_primal_has_the_marginals(self):
        xi = xi_channel(0.4, 0.5)
        out = sdp.solve(sdp.build_k_extension(xi, 4))
        assert out.status == "Feasible" and out.value > 0
        x = out.primal
        factors = (2, 2, 2, 2, 2)
        for a in range(1, 5):
            traced = [i for i in range(1, 5) if i != a]
            assert np.abs(ptrace_array(x, factors, traced) - xi.choi.array).max() <= 1e-8
        assert np.linalg.eigvalsh(x).min() >= 0

    def test_infeasible_certificate_is_a_split_adjoint_sum(self):
        ident = identity_channel(2)
        out = sdp.solve(sdp.build_compat(ident, ident))
        assert out.status == "Infeasible"
        s = out.dual[0]
        assert abs(np.trace(s).real - 1.0) <= 1e-9
        z1, z2 = split_adjoint_pair(s, (2, 2, 2))
        assert np.abs(adjoint_sum(z1, z2, (2, 2, 2)) - s).max() <= 1e-9

    def test_state_compat_dual_objective_matches_value(self, rng):
        # marginals of one state, so the two share their X marginal
        rho = random_density(rng, 12)
        rho1 = HermitianMatrix(ptrace_array(rho, (2, 2, 3), [2]), TensorShape((2, 2)))
        rho2 = HermitianMatrix(ptrace_array(rho, (2, 2, 3), [1]), TensorShape((2, 3)))
        out = sdp.solve(sdp.build_state_compat(rho1, rho2))
        assert out.status in ("Feasible", "Infeasible")
        assert abs(out.residuals["dual_objective"] - out.value) <= 1e-6


STANDARD_KINDS = ["compat222", "compat223", "compat333", "ppt_relaxation", "state",
                  "k2", "k3", "k4", "povm", "xi_k3"]


def _standard_program(kind):
    """One program of each standard-form builder, on seeded random data."""
    rng = np.random.default_rng(11)
    if kind == "compat222":
        return sdp.build_compat(random_channel(rng, 2), random_channel(rng, 2))
    if kind == "compat223":
        return sdp.build_compat(random_channel(rng, 2, 2), random_channel(rng, 2, 3))
    if kind == "compat333":
        return sdp.build_compat(random_invertible_channel(rng, 3),
                                random_invertible_channel(rng, 3))
    if kind == "ppt_relaxation":
        f, g = random_channel(rng, 2), random_channel(rng, 2, 3)
        j1t = ptranspose_array(f.choi.array, (2, 2), 0)
        j2t = ptranspose_array(g.choi.array, (2, 3), 0)
        return sdp.two_marginal_problem(j1t, j2t, (2, 2, 3), name="ppt_relaxation")
    if kind == "state":
        rho = random_density(rng, 12)
        rho1 = HermitianMatrix(ptrace_array(rho, (2, 2, 3), [2]), TensorShape((2, 2)))
        rho2 = HermitianMatrix(ptrace_array(rho, (2, 2, 3), [1]), TensorShape((2, 3)))
        return sdp.build_state_compat(rho1, rho2)
    if kind.startswith("k"):
        return sdp.build_k_extension(random_channel(rng, 2), int(kind[1:]))
    if kind == "xi_k3":  # real data
        return sdp.build_k_extension(xi_channel(0.3, 0.4), 3)
    return sdp.build_povm_compat(random_povm(rng, 2, 3), random_povm(rng, 2, 2))


# null-space programs, with the Schur size m and dropped directions of
# their compile; jordan_deph3 has real data, so it is compiled over the
# real symmetric matrices
NULL_SPACE_KINDS = {"ppt333": (577, 0), "jordan_deph3": (79, 216)}


def _null_space_program(kind):
    if kind == "ppt333":
        rng = np.random.default_rng(11)
        return sdp.build_compat(random_invertible_channel(rng, 3),
                                random_invertible_channel(rng, 3), ppt=True)
    return sdp.build_jordan_compat(dephasing_channel(3), identity_channel(3))


class TestStructuredSchur:
    """The standard-form Schur matrix formed from the constraint structure
    equals the Gram matrix of the scaled dense constraint blocks, and the
    Gram-eigendecomposition elimination equals an SVD of K, with the
    null-space form's free directions in the kernel of K."""

    @pytest.mark.parametrize("kind", STANDARD_KINDS)
    def test_schur_matches_dense_gram(self, kind):
        comp = compile_ipm(_standard_program(kind))
        assert comp.plan is not None
        rng = np.random.default_rng(5)
        for _ in range(3):
            rinvs, gram = [], np.zeros((comp.m, comp.m))
            for a in comp.A_blocks.swapaxes(0, 1):
                n = a.shape[-1]
                # the scaling point is in the program's field
                rinv = rng.normal(size=(n, n)) + n * np.eye(n)
                if np.iscomplexobj(a):
                    rinv = rinv + 1j * rng.normal(size=(n, n))
                scaled = (rinv @ a @ rinv.conj().T).reshape(comp.m, -1)
                gram += (scaled.conj() @ scaled.T).real
                rinvs.append(rinv)
            schur = comp.schur(rinvs)
            assert np.array_equal(schur, schur.T)
            assert np.abs(schur - gram).max() <= 1e-12 * np.abs(gram).max()

    def test_null_space_schur_is_the_sum_of_block_grams(self):
        # one Gram product over the stacked blocks against the sum of
        # the per-block Gram matrices
        rng = np.random.default_rng(12)
        comp = compile_ipm(sdp.build_compat(random_channel(rng, 2), random_channel(rng, 2),
                                            ppt=True))
        nblocks, n = comp.C_blocks.shape[:2]
        assert comp.plan is None and comp.A_blocks.shape == (comp.m, 2, n, n)
        rinvs = (rng.normal(size=(nblocks, n, n)) + 1j * rng.normal(size=(nblocks, n, n))
                 + n * np.eye(n))
        gram = np.zeros((comp.m, comp.m))
        for rinv, a in zip(rinvs, comp.A_blocks.swapaxes(0, 1)):
            scaled = (rinv @ a @ rinv.conj().T).reshape(comp.m, -1)
            gram += (scaled.conj() @ scaled.T).real
        assert np.abs(comp.schur(rinvs) - gram).max() <= 1e-12 * np.abs(gram).max()

    @pytest.mark.parametrize("kind", STANDARD_KINDS + list(NULL_SPACE_KINDS))
    def test_thin_elimination_matches_svd(self, kind):
        null_space = kind in NULL_SPACE_KINDS
        problem = _null_space_program(kind) if null_space else _standard_program(kind)
        kmat = _constraint_matrix(*_plan_key(problem))
        bvec = np.concatenate([herm_to_vec(con.rhs.real if problem.real else con.rhs, problem.real)
                               for con in problem.constraints])
        u, s, vh = np.linalg.svd(kmat, full_matrices=False)
        rank = int(np.sum(s > CONSTRAINT_RANK_TOL * s[0]))
        x0 = vh[:rank].T @ ((u[:, :rank].T @ bvec) / s[:rank])
        st, elim_x0 = _eliminate(problem)
        assert st.rank == rank
        assert st.removed == kmat.shape[0] - rank
        assert np.abs(st.vh @ st.vh.T - np.eye(rank)).max() <= 1e-12
        assert np.abs(st.vh.T @ st.vh - vh[:rank].T @ vh[:rank]).max() <= 1e-12
        assert np.abs(elim_x0 - x0).max() <= 1e-12
        if null_space:
            # the free directions complete the thin rows
            comp = compile_ipm(problem)
            assert (comp.m, comp.dropped_directions) == NULL_SPACE_KINDS[kind]
            nullb = comp.nullbasis
            assert np.abs(kmat @ nullb).max() <= 1e-12 * np.abs(nullb).max()

    def test_plan_is_shared_by_equal_structures(self):
        rng = np.random.default_rng(6)
        pair = [sdp.build_compat(random_channel(rng, 2), random_channel(rng, 2))
                for _ in range(2)]
        first, second = (compile_ipm(p) for p in pair)
        assert first.plan is second.plan
        # so are the structure cache's other standard-form arrays
        assert first.A_blocks is second.A_blocks
        assert first.C_blocks is second.C_blocks
        assert first.gmat is second.gmat
        assert not np.array_equal(first.b, second.b)
        other = sdp.build_compat(random_channel(rng, 2), random_channel(rng, 2, 3))
        assert compile_ipm(other).plan is not first.plan

    def test_null_space_form_has_no_plan(self):
        f, g = random_channel(np.random.default_rng(7), 2), identity_channel(2)
        assert compile_ipm(sdp.build_compat(f, g, ppt=True)).plan is None


class TestStructureCache:
    """The structure cache holds read-only arrays, leaves the per-problem
    consistency check in place, gives compiles bit-identical to fresh
    ones and serves every solver (sharing by equal structures is
    checked in ``TestStructuredSchur``)."""

    def test_cached_arrays_are_read_only(self):
        problem = sdp.build_compat(identity_channel(2), depolarizing_channel(2))
        comp = compile_ipm(problem)
        st = _structure_of(_plan_key(problem))
        for arr in (st.kmat, st.coords, st.vh, comp.gmat, comp.A_blocks[0], comp.C_blocks[0],
                    comp.plan.index, comp.plan.coef):
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = 1.0

    def test_warm_cache_still_rejects_inconsistent_rhs(self):
        consistent = sdp.two_marginal_problem(np.eye(4) / 2, np.eye(4) / 2, (2, 2, 2))
        inconsistent = sdp.two_marginal_problem(np.eye(4), 2 * np.eye(4), (2, 2, 2))
        assert _plan_key(consistent) == _plan_key(inconsistent)
        compile_ipm(consistent)
        misses = _structure_of.cache_info().misses
        for mode in ("interior_point", "projection"):
            with pytest.raises(ValueError, match="equality constraints are inconsistent"):
                sdp.solve(inconsistent, mode=mode)
        assert _structure_of.cache_info().misses == misses

    @pytest.mark.parametrize("kind", ["compat222", "compat333", "k3"])
    def test_cold_compile_equals_warm_compile_bitwise(self, kind):
        problem = _standard_program(kind)
        _structure_of.cache_clear()
        cold = compile_ipm(problem)
        cold_res = solve_ipm(cold.C_blocks, cold.A_blocks, cold.b, cold.Z0, cold.schur)
        # warm the cache with another right-hand side of the same structure
        _structure_of.cache_clear()
        compile_ipm(SdpProblem(
            problem.factors,
            tuple(dataclasses.replace(con, rhs=np.eye(con.rhs.shape[0]) / con.rhs.shape[0])
                  for con in problem.constraints),
            problem.blocks))
        warm = compile_ipm(problem)
        assert warm.A_blocks is not cold.A_blocks
        for name in ("x0", "b", "t0", "gmat"):
            assert np.array_equal(getattr(cold, name), getattr(warm, name)), name
        for name in ("Z0", "A_blocks", "C_blocks"):
            assert all(np.array_equal(c, w) for c, w in zip(getattr(cold, name),
                                                            getattr(warm, name))), name
        warm_res = solve_ipm(warm.C_blocks, warm.A_blocks, warm.b, warm.Z0, warm.schur)
        assert warm_res.iterations == cold_res.iterations
        assert np.array_equal(warm_res.y, cold_res.y)
        assert all(np.array_equal(c, w) for c, w in zip(cold_res.Z_blocks, warm_res.Z_blocks))

    def test_projection_and_null_space_reuse_the_elimination(self):
        rng = np.random.default_rng(8)
        xi = sdp.build_k_extension(xi_channel(0.4, 0.5), 3)
        # the field is part of the structure, so a real program warms it
        compile_ipm(sdp.build_k_extension(partial_depolarizing_channel(0.7, 2), 3))
        ppt = [sdp.build_compat(random_channel(rng, 2), random_channel(rng, 2), ppt=True)
               for _ in range(2)]
        compile_ipm(ppt[0])
        misses = _structure_of.cache_info().misses
        assert sdp.solve(xi, mode="projection").status == "Feasible"
        assert compile_ipm(ppt[1]).nullbasis is not None
        assert _structure_of.cache_info().misses == misses


def _real_coordinates(n):
    """Where the ``symmetric_basis`` coordinates sit among the
    ``hermitian_basis`` ones."""
    return np.r_[0:n, n : n * n : 2]


class TestField:
    """A program whose right-hand sides and maps have imaginary part
    exactly 0 is compiled and solved over the real symmetric matrices,
    in float64 and with fewer Schur rows; any other is complex."""

    def test_non_hermitian_rhs_rejected(self):
        # the coordinates read only the upper triangle: this rhs used to
        # solve to Feasible with a marginal off its rhs by 0.6
        j = partial_depolarizing_channel(0.9, 2).choi.array
        bad = j.copy()
        bad[3, 0] = 0.7
        with pytest.raises(ValueError, match=r"constraint tracing \(2,\) has a rhs that is not "
                                             r"Hermitian: max \|M - M\^dag\| = 6\.000e-01"):
            sdp.two_marginal_problem(bad, j, (2, 2, 2))
        # a real rhs is refused too, not symmetrized
        with pytest.raises(ValueError, match=r"constraint tracing \(1,\) has a rhs that is not"):
            SdpProblem((2, 2), (Constraint((1,), np.triu(np.ones((2, 2)))),), (Block(),))
        # a deviation within the tolerance HermitianMatrix allows is kept
        near = j.copy()
        near[3, 0] += 1e-13
        assert sdp.two_marginal_problem(near, j, (2, 2, 2)).real

    def test_field_of_each_builder(self):
        xi = xi_channel(0.3, 0.4)
        rng = np.random.default_rng(4)
        assert sdp.build_compat(xi, xi, ppt=True).real
        assert sdp.build_k_extension(xi, 3).real
        assert sdp.build_jordan_compat(dephasing_channel(3), identity_channel(3)).real
        assert not sdp.build_compat(xi, random_channel(rng, 2)).real
        # a map with complex entries makes the program complex, whatever
        # the right-hand sides
        assert not sdp.build_jordan_compat(xi, random_channel(rng, 2)).real

    @pytest.mark.parametrize("ppt, ms", [(False, (16, 27)), (True, (20, 37))],
                             ids=["standard", "null_space"])
    def test_real_program_compiles_to_float64(self, ppt, ms):
        xi = xi_channel(0.3, 0.4)
        problem = sdp.build_compat(xi, xi, ppt=ppt)
        real, cplx = compile_ipm(problem), compile_ipm(phase_twin(problem))
        for arr in (real.A_blocks, real.C_blocks, real.Z0):
            assert arr.dtype == np.float64
        for arr in (cplx.A_blocks, cplx.C_blocks, cplx.Z0):
            assert arr.dtype == np.complex128
        assert (real.m, cplx.m) == ms
        out = sdp.solve(problem)
        assert out.primal.dtype == out.dual.dtype == np.complex128

    def test_tiny_imaginary_part_stays_complex(self):
        j = xi_channel(0.3, 0.4).choi.array.copy()
        j[0, 3] += 1e-300j
        j[3, 0] -= 1e-300j
        problem = sdp.two_marginal_problem(j, j, (2, 2, 2))
        assert not problem.real
        assert compile_ipm(problem).A_blocks.dtype == np.complex128

    def test_real_and_complex_structures_are_distinct_cache_entries(self):
        xi = xi_channel(0.3, 0.4)
        problem = sdp.build_compat(xi, xi)
        twin = phase_twin(problem)
        key_real, key_complex = _plan_key(problem), _plan_key(twin)
        assert key_real[:2] == key_complex[:2] and key_real != key_complex
        real, cplx = _structure_of(key_real), _structure_of(key_complex)
        assert real is not cplx
        # K is block-diagonal in (re, im): the real K is the complex one
        # on its real rows and columns
        rows = np.concatenate([16 * c + _real_coordinates(4) for c in range(2)])
        cols = _real_coordinates(problem.side)
        assert np.array_equal(real.kmat, cplx.kmat[np.ix_(rows, cols)])


# one program of each kind the paper's real channels give, solved with its
# complex twin: the reference pair's compat and PPT stages, and the
# k-extension of a feasible and an infeasible xi channel
def _twin_cases():
    f, g = reference.channel_pair()
    j1t = ptranspose_array(f.choi.array, (2, 2), 0)
    j2t = ptranspose_array(g.choi.array, (2, 2), 0)
    cases = {"compat": sdp.build_compat(f, g),
             "ppt_stage_a": sdp.two_marginal_problem(j1t, j2t, (2, 2, 2)),
             "ppt_stage_b": sdp.build_compat(f, g, ppt=True)}
    for p, q in ((0.4, 0.5), (0.1, 0.3)):
        for k in (2, 3, 4):
            cases[f"k{k}_xi_{p}_{q}"] = sdp.build_k_extension(xi_channel(p, q), k)
    return cases


class TestRealComplexTwins:
    """A real program and its phase twin have the same optimum; the real
    one is solved over the real symmetric matrices, the twin over the
    complex Hermitian ones."""

    @pytest.mark.parametrize("kind", list(_twin_cases()))
    def test_interior_point(self, kind):
        problem = _twin_cases()[kind]
        twin = phase_twin(problem)
        assert problem.real and not twin.real
        real, cplx = sdp.solve(problem), sdp.solve(twin)
        assert real.status == cplx.status != "Inconclusive"
        assert abs(real.iterations - cplx.iterations) <= 1
        assert abs(real.value - cplx.value) <= 1e-10

    @pytest.mark.parametrize("q", [0.5, 0.3], ids=["feasible", "not_settled"])
    def test_projection(self, q):
        problem = sdp.build_k_extension(xi_channel(0.4 if q == 0.5 else 0.1, q), 4)
        real, cplx = (sdp.solve(p, mode="projection") for p in (problem, phase_twin(problem)))
        assert real.status == cplx.status
        assert (real.status == "Feasible") == (q == 0.5)

    def test_singular_schur_is_factored_with_jitter(self):
        # at 1 BLAS thread the real program's seventh Schur matrix factors
        # without jitter at a condition number of 2e16, and the direction
        # on that factor has no step along it; the jittered factor gives
        # the step its complex twin takes
        xi = xi_channel(0.45, 0.25)
        problem = sdp.build_compat(xi, xi)
        real, cplx = sdp.solve(problem), sdp.solve(phase_twin(problem))
        assert real.status == cplx.status == "Feasible"
        assert abs(real.value - cplx.value) <= 1e-10

    @pytest.mark.parametrize("k", [None, 2], ids=["compat", "k2"])
    def test_near_singular_schur_does_not_stall(self, k):
        # xi(0.5, 0.15), with linspace's q = 0.15000000000000002: plain
        # factors of its Schur matrices, at condition 1e16-1e18, give
        # directions that miss the primal equations by more than the
        # solver's tolerance, and the real program wanders for 31
        # iterations to its twin's 7
        grid = np.linspace(0, 1, 21)
        xi = xi_channel(grid[10], grid[3])
        problem = sdp.build_compat(xi, xi) if k is None else sdp.build_k_extension(xi, k)
        real, cplx = sdp.solve(problem), sdp.solve(phase_twin(problem))
        assert real.status == cplx.status == "Feasible"
        assert real.iterations <= 10
        assert abs(real.iterations - cplx.iterations) <= 1
        assert abs(real.value - cplx.value) <= 1e-10


class TestCholSolve:
    """Block substitution with the inverses of the factor's diagonal
    blocks agrees with two general solves on the whole factor."""

    @staticmethod
    def _assert_matches_two_solves(l, rhs):
        ref = np.linalg.solve(l.T, np.linalg.solve(l, rhs))
        x = _chol_solve(l, _block_inverses(l), rhs)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("m", [1, 37, 64])
    def test_single_block_matches_two_solves(self, rng, m):
        g = rng.normal(size=(m, m))
        l = np.linalg.cholesky(g @ g.T + m * np.eye(m))
        self._assert_matches_two_solves(l, rng.normal(size=m))

    @staticmethod
    def _ill_conditioned_factor(rng, m, cond):
        q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        l, _fell = _chol_pd((q * np.logspace(0, -np.log10(cond), m)) @ q.T)
        return l

    @pytest.mark.parametrize("m", [37, 64])
    @pytest.mark.parametrize("cond", [1e6, 1e10, 1e13, 1e16])
    def test_single_block_matches_two_solves_when_ill_conditioned(self, rng, m, cond):
        l = self._ill_conditioned_factor(rng, m, cond)
        self._assert_matches_two_solves(l, rng.normal(size=m))

    @pytest.mark.parametrize("m", [130, 577])
    @pytest.mark.parametrize("cond", [1e6, 1e10, 1e13, 1e16])
    def test_blocked_matches_two_solves_when_ill_conditioned(self, rng, m, cond):
        l = self._ill_conditioned_factor(rng, m, cond)
        self._assert_matches_two_solves(l, rng.normal(size=m))


class TestCholPd:
    def test_positive_definite_takes_plain_factor(self, rng):
        g = rng.normal(size=(6, 6))
        x = g @ g.T + 6 * np.eye(6)
        l, fell = _chol_pd(x)
        assert not fell
        assert np.array_equal(l, np.linalg.cholesky(x))

    @pytest.mark.parametrize("x", [np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
                                   np.array([[1.0, 2.0], [2.0, 1.0]])],
                             ids=["rank_deficient", "indefinite"])
    def test_singular_or_indefinite_reports_fallback(self, x):
        # the first needs jitter (exact zero pivot), the second the eigenvalue clip
        l, fell = _chol_pd(x)
        assert fell
        assert np.all(np.isfinite(l))

    def test_jittered_first_attempt_is_not_a_fallback(self, rng):
        g = rng.normal(size=(6, 6))
        x = g @ g.T + 6 * np.eye(6)
        l, fell = _chol_pd(x, jittered=True)
        assert not fell
        assert np.array_equal(l, np.linalg.cholesky(x + 1e-14 * np.diagonal(x).max() * np.eye(6)))
        # an indefinite matrix takes more than the first rung
        _l, fell = _chol_pd(np.array([[1.0, 2.0], [2.0, 1.0]]), jittered=True)
        assert fell

    def test_escalation_inside_solve_reaches_the_outcome(self, monkeypatch):
        # every other single-matrix factorization fails, so each Schur
        # matrix, factored once per iteration, needs the helper's second
        # rung; the NT factors of the stacked (S, Z) are one stacked call
        # and factor as usual
        cholesky = np.linalg.cholesky
        calls = itertools.count()

        def every_other_fails(x):
            if x.ndim == 2 and next(calls) % 2 == 0:
                raise np.linalg.LinAlgError("forced")
            return cholesky(x)

        problem = sdp.build_compat(identity_channel(2), identity_channel(2))
        plain = sdp.solve(problem)
        monkeypatch.setattr(np.linalg, "cholesky", every_other_fails)
        out = sdp.solve(problem)
        assert out.status == plain.status == "Infeasible"
        assert plain.residuals["chol_fallbacks"] == 0
        assert out.residuals["chol_fallbacks"] == out.iterations >= 1


class TestDualitySandwich:
    def test_compat_sandwich(self, rng):
        # lam_min(explicit affine point) <= alpha = beta <= 1/dim(Y1 (x) Y2)
        for _ in range(100):
            f = random_channel(rng, 2)
            g = random_channel(rng, 2)
            out = sdp.solve(sdp.build_compat(f, g))
            assert out.status in ("Feasible", "Infeasible")
            beta = out.residuals["dual_objective"]
            assert abs(out.value - beta) <= 1e-6 * (1 + abs(out.value))
            xbar = (
                np.kron(f.choi.array, np.eye(2)) / 2
                + embed_identity_array(g.choi.array, (2, 2), (2, 2, 2), (0, 2)) / 2
                - np.eye(8) / 4
            )
            assert np.linalg.eigvalsh(xbar).min() <= out.value + 1e-6
            assert out.value <= 0.25 + 1e-6

    def test_jordan_sandwich(self, rng):
        for _ in range(100):
            f = random_channel(rng, 2)
            g = random_channel(rng, 2)
            out = sdp.solve(sdp.build_jordan_compat(f, g))
            if out.status == "Inconclusive":
                continue
            beta = out.residuals["dual_objective"]
            assert abs(out.value - beta) <= 1e-6 * (1 + abs(out.value))
            lower = np.linalg.eigvalsh(
                gen_jordan(f.rep, g.rep, a_jp(2)).choi.array
            ).min()
            assert lower <= out.value + 1e-6
            assert out.value <= 0.25 + 1e-6


class TestJordanProgram:
    def test_identity_with_depolarizing_feasible(self):
        out = sdp.solve(sdp.build_jordan_compat(identity_channel(2), depolarizing_channel(2)))
        assert out.status == "Feasible"

    def test_identity_pair_infeasible(self):
        out = sdp.solve(sdp.build_jordan_compat(identity_channel(2), identity_channel(2)))
        assert out.status == "Infeasible"

    def test_xi_self_jordan_feasible_and_recovers_compatibilizer(self):
        xi = xi_channel(0.1, 0.5)
        out = sdp.solve(sdp.build_jordan_compat(xi, xi))
        assert out.status == "Feasible"
        a = out.primal
        from qcc.jordan import GenJordanOperator

        op = GenJordanOperator(HermitianMatrix(a, TensorShape((2, 2, 2))))
        image = gen_jordan(xi.rep, xi.rep, op)
        assert np.linalg.eigvalsh(image.choi.array).min() >= -1e-7
        rep = validate(image)
        assert rep.tp

    def test_equivalence_with_compat_on_invertible_pairs(self, rng):
        # invertible channels: compatible iff Jordan compatible
        agreements = 0
        for _ in range(100):
            f = random_invertible_channel(rng, 2)
            g = random_invertible_channel(rng, 2)
            d1 = decide(f, g, "compat")
            d2 = decide(f, g, "jordan")
            if "Inconclusive" in (d1.verdict, d2.verdict):
                continue
            assert d1.verdict == d2.verdict
            agreements += 1
        assert agreements >= 95


class TestKExtension:
    def test_k2_matches_compat(self, rng):
        for _ in range(20):
            f = random_channel(rng, 2)
            a = sdp.solve(sdp.build_compat(f, f))
            b = sdp.solve(sdp.build_k_extension(f, 2))
            assert a.status == b.status
            assert abs(a.value - b.value) < 1e-6

    def test_identity_k3_infeasible(self):
        out = sdp.solve(sdp.build_k_extension(identity_channel(2), 3))
        assert out.status == "Infeasible"

    def test_mp_boundary_extends(self):
        p = 0.4
        xi = xi_channel(p, 2 * (1 - p) / 3)
        for k, mode in ((2, "interior_point"), (3, "interior_point"), (4, "projection")):
            out = sdp.solve(sdp.build_k_extension(xi, k), mode=mode)
            assert out.status == "Feasible", (k, out.status)

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            sdp.build_k_extension(identity_channel(2), 1)

    def test_projection_agrees_with_ipm_on_feasible(self, rng):
        for q in (0.4, 0.6, 0.8):
            f = partial_depolarizing_channel(q, 2)
            a = sdp.solve(sdp.build_k_extension(f, 2))
            b = sdp.solve(sdp.build_k_extension(f, 2), mode="projection")
            assert a.status == "Feasible" and b.status == "Feasible"
            x = b.primal
            assert np.linalg.eigvalsh(x).min() >= -1e-8
            assert np.abs(ptrace_array(x, (2, 2, 2), [2]) - f.choi.array).max() < 1e-7

    def test_projection_not_feasible_is_inconclusive(self):
        # the identity has no k = 4 extension, and Dykstra cannot refute
        out = sdp.solve(sdp.build_k_extension(identity_channel(2), 4), mode="projection")
        assert out.status == "Inconclusive"
        assert out.note == "projection did not reach feasibility"
        assert np.isnan(out.value) and out.primal is None

    @staticmethod
    def _off_affine(problem, x):
        # the identity is PSD, and its marginals are far from J(f)
        return np.eye(problem.side, dtype=np.complex128)

    @staticmethod
    def _off_psd(problem, x):
        # a step along a direction every constraint maps to zero
        rows = _eliminate(problem)[0].vh
        h = herm_to_vec(random_hermitian(np.random.default_rng(3), problem.side).real, True)
        kernel = vec_to_herm(h - rows.T @ (rows @ h), problem.side, True)
        return x + 10 * kernel / np.abs(kernel).max()

    @pytest.mark.parametrize("doctor, note", [
        ("_off_affine", r"constraint tracing \(2, 3, 4\) is off its rhs by"),
        ("_off_psd", r"identity block 0 has least eigenvalue -"),
    ], ids=["off_affine", "not_psd"])
    def test_projection_feasible_is_rechecked(self, monkeypatch, doctor, note):
        # a Feasible verdict from projection must survive a check that
        # reads only the problem and X, not the solver's elimination
        problem = sdp.build_k_extension(xi_channel(0.4, 0.5), 4)
        x = sdp.solve(problem, mode="projection").primal
        assert primal_failure(problem, x) == ""
        bad = getattr(self, doctor)(problem, x)
        monkeypatch.setattr(sdp, "solve_dykstra", lambda prob: ProjectionResult(True, bad, 0.0, 8))
        out = sdp.solve(problem, mode="projection")
        assert out.status == "Inconclusive" and out.primal is None
        assert out.iterations == 8
        assert re.match(note, out.note), out.note


class TestPovmCompat:
    def test_computational_pvm_self_compatible(self):
        pvm = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        out = sdp.solve(sdp.build_povm_compat(pvm, pvm))
        assert out.status == "Feasible"

    def test_complementary_pvms_incompatible(self):
        z = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        plus = np.ones((2, 2)) / 2
        x = Povm((plus, np.eye(2) - plus))
        out = sdp.solve(sdp.build_povm_compat(z, x))
        assert out.status == "Infeasible"

    def test_noisy_unbiased_pair_threshold(self):
        # brute-force oracle: the operator jordan products form a
        # compatibilizer exactly up to noise 1/sqrt(2)
        for eta, expect in ((0.5, "Feasible"), (0.8, "Infeasible")):
            m, n = _unbiased_pair(eta)
            out = sdp.solve(sdp.build_povm_compat(m, n))
            assert out.status == expect
            jordan_psd = min(
                np.linalg.eigvalsh(jordan_matrix(a, b).array).min()
                for a in m.effects
                for b in n.effects
            )
            assert (jordan_psd >= -1e-12) == (eta <= 1 / np.sqrt(2) + 1e-12)


def _unbiased_pair(eta):
    """Noisy sigma_z and sigma_x measurements, jointly measurable exactly
    up to eta = 1/sqrt(2)."""
    sz = np.diag([1.0, -1.0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    return (Povm(((np.eye(2) + eta * sz) / 2, (np.eye(2) - eta * sz) / 2)),
            Povm(((np.eye(2) + eta * sx) / 2, (np.eye(2) - eta * sx) / 2)))


class TestPovmReadOut:
    """The POVM program is the compat program of the two measurement
    channels.  Its certificates are checked against the POVMs alone: on
    Feasible the joint effects on X's diagonal register blocks, on
    Infeasible the (Z1, Z2) witness on the measurement channels."""

    @staticmethod
    def _assert_certified(out, m, n):
        d, nm, nn = m.dim, len(m), len(n)
        if out.status == "Feasible":
            # X on X (x) Y1 (x) Y2 holds P_ij^T at outcome registers (i, j)
            blocks = out.primal.reshape(d, nm, nn, d, nm, nn)
            parts = [[blocks[:, i, j, :, i, j].T for j in range(nn)] for i in range(nm)]
            for i, eff in enumerate(m.effects):
                assert np.abs(sum(parts[i]) - eff).max() <= sdp.DECISION_TOL
            for j, eff in enumerate(n.effects):
                assert np.abs(sum(row[j] for row in parts) - eff).max() <= sdp.DECISION_TOL
            assert min(np.linalg.eigvalsh(p).min() for row in parts for p in row) \
                >= -sdp.DECISION_TOL
        else:
            assert out.status == "Infeasible"
            f, g = measurement_channel(m), measurement_channel(n)
            report = verify_witness(witness_from_dual(out.dual[0], f, g, "plain"), f, g)
            assert report.valid and report.margin < 0

    @pytest.mark.parametrize("eta, status", [(0.3, "Feasible"), (0.7, "Feasible"),
                                             (0.72, "Infeasible"), (1.0, "Infeasible")])
    def test_unbiased_pair(self, eta, status):
        m, n = _unbiased_pair(eta)
        out = sdp.solve(sdp.build_povm_compat(m, n))
        assert out.status == status
        self._assert_certified(out, m, n)

    def test_random_pairs(self, rng):
        statuses = []
        for _ in range(8):
            for m, n in ((random_povm(rng, 2, 3), random_povm(rng, 2, 2)),
                         (random_povm(rng, 3, 2), random_povm(rng, 3, 3)),
                         (random_pvm(rng, 2), random_pvm(rng, 2))):
                out = sdp.solve(sdp.build_povm_compat(m, n))
                self._assert_certified(out, m, n)
                statuses.append(out.status)
        assert {"Feasible", "Infeasible"} <= set(statuses)


class TestDecide:
    def test_identity_pair_witnessed(self):
        ident = identity_channel(2)
        dec = decide(ident, ident)
        assert dec.verdict == "Incompatible"
        assert verify_witness(dec.witness, ident, ident).valid

    def test_reference_pair_modes(self):
        f, g = reference.channel_pair()
        assert decide(f, g, "compat").verdict == "Compatible"
        dec = decide(f, g, "ppt_compat")
        assert dec.verdict == "Incompatible"
        assert dec.witness.mode == "ppt"
        assert verify_witness(dec.witness, f, g).valid

    def test_depolarizing_pair(self):
        f = partial_depolarizing_channel(0.6, 2)
        dec = decide(f, f)
        assert dec.verdict == "Compatible"
        assert dec.compatibilizer is not None and dec.witness is None

    def test_never_both_certificates(self, rng):
        for _ in range(50):
            f = random_channel(rng, 2)
            g = random_channel(rng, 2)
            dec = decide(f, g)
            has_comp = dec.compatibilizer is not None
            has_wit = dec.witness is not None
            assert not (has_comp and has_wit)
            if dec.verdict == "Compatible":
                assert has_comp
            if dec.verdict == "Incompatible":
                assert has_wit

    def test_ppt_mode_on_compatible_classical_pair(self):
        d = dephasing_channel(2)
        dec = decide(d, d, "ppt_compat")
        assert dec.verdict == "Compatible"
        arr = dec.compatibilizer.array
        from qcc.linalg import ptranspose_array

        assert np.linalg.eigvalsh(ptranspose_array(arr, (2, 2, 2), 0)).min() >= -1e-7

    def test_jordan_witness_verifies(self):
        ident = identity_channel(2)
        dec = decide(ident, ident, "jordan")
        assert dec.verdict == "Incompatible"
        assert verify_jordan_witness(dec.witness, ident, ident).valid

    def test_split_reproduces_adjoint_sum_and_margin(self, rng):
        # every factor a different size, so a swapped factor order fails
        factors = (2, 3, 4)
        z1 = random_hermitian(rng, 6)
        z2 = random_hermitian(rng, 8)
        f = random_channel(rng, 2, 3)
        g = random_channel(rng, 2, 4)
        big = adjoint_sum(z1, z2, factors)
        s1, s2 = split_adjoint_pair(big, factors)
        assert np.abs(adjoint_sum(s1, s2, factors) - big).max() < 1e-12

        def margin(a, b):
            return (np.vdot(a, f.choi.array) + np.vdot(b, g.choi.array)).real

        assert abs(margin(s1, s2) - margin(z1, z2)) < 1e-12

    @pytest.mark.parametrize("mode, margin", [("compat", -0.0917517), ("ppt_compat", -0.5)])
    def test_unequal_output_sizes(self, mode, margin):
        v = np.zeros((3, 2))
        v[0, 0] = v[1, 1] = 1.0
        omega = v.T.reshape(-1)
        iso = Channel.from_choi(np.outer(omega, omega), 2)
        ident = identity_channel(2)
        for f, g in ((ident, iso), (iso, ident)):
            dec = decide(f, g, mode)
            assert dec.verdict == "Incompatible"
            assert abs(dec.witness_margin - margin) < 1e-6
            report = verify_witness(dec.witness, f, g)
            assert report.valid and abs(report.margin - dec.witness_margin) < 1e-12

    def test_jordan_witness_qutrit_identity(self):
        ident = identity_channel(3)
        dec = decide(ident, ident, "jordan")
        assert dec.verdict == "Incompatible"
        assert abs(dec.witness_margin + 1 / 15) < 1e-6
        report = verify_jordan_witness(dec.witness, ident, ident)
        assert report.valid and abs(report.margin - dec.witness_margin) < 1e-12


class TestIterationCap:
    """A solve stopped by the IPM iteration cap is Inconclusive, never a
    verdict; the cap is read when the solver runs."""

    @pytest.fixture(autouse=True)
    def cap_at_two(self, monkeypatch):
        monkeypatch.setattr(sdp.ipm, "MAX_ITER", 2)

    def test_solve_reports_cap(self):
        ident = identity_channel(2)
        out = sdp.solve(sdp.build_compat(ident, ident))
        assert out.status == "Inconclusive"
        assert out.note == "iteration cap exceeded"
        assert out.iterations == 2
        assert out.primal is None and out.dual is None

    @pytest.mark.parametrize("mode", ["compat", "jordan", "ppt_compat"])
    def test_decide_reports_cap(self, mode):
        ident = identity_channel(2)
        dec = decide(ident, ident, mode)
        assert dec.verdict == "Inconclusive"
        assert dec.note == "iteration cap exceeded"
        assert dec.compatibilizer is None and dec.gen_jordan_op is None and dec.witness is None
        assert dec.exit_code == 2


def _assert_inconclusive(dec, note):
    assert dec.verdict == "Inconclusive"
    assert dec.note.startswith(note), dec.note
    assert dec.compatibilizer is None and dec.gen_jordan_op is None and dec.witness is None
    assert dec.exit_code == 2


class TestUnconvergedIsInconclusive:
    """A solve that misses ipm.TOL is Inconclusive however small its
    residuals are: after five iterations the gap is 3.5e-8 and 6.8e-8 on
    these pairs, inside DECISION_TOL, and that is still no verdict."""

    @pytest.fixture(autouse=True)
    def cap_at_five(self, monkeypatch):
        monkeypatch.setattr(sdp.ipm, "MAX_ITER", 5)

    @pytest.mark.parametrize("channel", [identity_channel(2), partial_depolarizing_channel(0.6, 2)],
                             ids=["identity", "depol0.6"])
    def test_solve_and_decide(self, channel):
        out = sdp.solve(sdp.build_compat(channel, channel))
        assert out.status == "Inconclusive"
        assert out.note == "iteration cap exceeded"
        assert out.primal is None and out.dual is None
        _assert_inconclusive(decide(channel, channel), "iteration cap exceeded")


class TestHonestInconclusive:
    """Each exit where decide() finds the solver's answer unusable, forced
    by doctoring one solve's outcome: Inconclusive with a reason, exit
    code 2 and no certificate."""

    @staticmethod
    def _doctor(monkeypatch, name, change):
        """Pass the outcome of every solve of the program called ``name``
        through ``change`` before decide() sees it."""
        real = decide_mod.solve

        def doctored(problem):
            out = real(problem)
            return change(out) if problem.name == name else out

        monkeypatch.setattr(decide_mod, "solve", doctored)

    @pytest.mark.parametrize("mode, program, note", [
        ("compat", "compat", "primal certificate failed validation (dev"),
        ("ppt_compat", "ppt_compat", "primal certificate failed validation"),
    ])
    def test_primal_check_fails(self, monkeypatch, mode, program, note):
        noisy = partial_depolarizing_channel(0.8, 2)
        assert decide(noisy, noisy, mode).verdict == "Compatible"
        self._doctor(monkeypatch, program,
                     lambda out: dataclasses.replace(out, primal=2 * out.primal))
        _assert_inconclusive(decide(noisy, noisy, mode), note)

    @pytest.mark.parametrize("mode, program", [("compat", "compat"),
                                               ("ppt_compat", "ppt_relaxation"),
                                               ("jordan", "compat")])
    def test_witness_fails(self, monkeypatch, mode, program):
        # the negated slack pairs the wrong way with every channel
        a, b = reference.channel_pair() if mode == "ppt_compat" else (identity_channel(2),) * 2
        assert decide(a, b, mode).verdict == "Incompatible"
        self._doctor(monkeypatch, program,
                     lambda out: dataclasses.replace(out, dual=[-z for z in out.dual]))
        _assert_inconclusive(decide(a, b, mode), "dual certificate failed verification")

    def test_gen_jordan_operator_rejects_a(self, monkeypatch):
        # at this scale the projection onto the identity marginals leaves
        # roundoff far above DECISION_TOL
        deph = dephasing_channel(2)
        big = 1e12 * random_hermitian(np.random.default_rng(5), 8)
        assert decide(deph, deph, "jordan").verdict == "Compatible"
        self._doctor(monkeypatch, "jordan_compat",
                     lambda out: dataclasses.replace(out, primal=big))
        _assert_inconclusive(decide(deph, deph, "jordan"), "marginal constraints violated")

    def test_product_image_not_psd(self, monkeypatch):
        # I (x) sz (x) sz has zero middle marginals, so A stays admissible,
        # and the dephasing pair maps it onto itself: the image gains -10
        sz = np.diag([1.0, -1.0])
        a = a_jp(2).matrix.array + 10 * np.kron(np.eye(2), np.kron(sz, sz))
        deph = dephasing_channel(2)
        self._doctor(monkeypatch, "jordan_compat",
                     lambda out: dataclasses.replace(out, primal=a))
        _assert_inconclusive(decide(deph, deph, "jordan"), "product image not PSD")

    @pytest.mark.parametrize("mode", ["compat", "jordan", "ppt_compat"])
    def test_step_collapse(self, monkeypatch, mode):
        monkeypatch.setattr(sdp.ipm, "_steps_to_boundary", lambda lam, gs, gz: (0.0, 0.0))
        ident = identity_channel(2)
        out = sdp.solve(sdp.build_compat(ident, ident))
        assert out.status == "Inconclusive" and out.note == "step collapse"
        assert out.iterations == 1 and out.primal is None and out.dual is None
        _assert_inconclusive(decide(ident, ident, mode), "step collapse")


class TestConvexityProperties:
    def test_compatible_set_convex(self, rng):
        # mixtures of compatible pairs stay compatible
        for _ in range(100):
            psi1 = random_channel(rng, 2)
            psi2 = random_channel(rng, 2)
            rho1 = random_density(rng, 2)
            rho2 = random_density(rng, 2)
            f1 = mix_channels(psi1, constant_channel(rho1, 2), 0.5)
            g1 = mix_channels(psi2, constant_channel(rho2, 2), 0.5)
            f2 = depolarizing_channel(2)
            g2 = depolarizing_channel(2)
            assert decide(f1, g1).verdict == "Compatible"
            for lam in (0.25, 0.5, 0.75):
                fm = mix_channels(f1, f2, lam)
                gm = mix_channels(g1, g2, lam)
                assert decide(fm, gm).verdict == "Compatible"

    def test_half_mixing_with_constant_channels(self, rng):
        for _ in range(100):
            f = random_channel(rng, 2)
            g = random_channel(rng, 2)
            rho1 = random_density(rng, 2)
            rho2 = random_density(rng, 2)
            fm = mix_channels(f, constant_channel(rho1, 2), 0.5)
            gm = mix_channels(g, constant_channel(rho2, 2), 0.5)
            assert decide(fm, gm).verdict == "Compatible"


class TestPairingIdentity:
    def test_dual_pairing_via_generalized_product(self, rng):
        # <Z1, J(f)> + <Z2, J(g)> = <J(f .A g), Tr*(Z1) + Tr*(Z2)>
        sz = np.diag([1.0, -1.0])
        for _ in range(100):
            f = random_channel(rng, 2)
            g = random_channel(rng, 2)
            z1 = random_hermitian(rng, 4)
            z2 = random_hermitian(rng, 4)
            lhs = np.tensordot(z1.conj(), f.choi.array, axes=2).real
            lhs += np.tensordot(z2.conj(), g.choi.array, axes=2).real
            from qcc.jordan import GenJordanOperator

            for arr in (a_jp(2).matrix.array,
                        a_jp(2).matrix.array + np.kron(np.eye(2), np.kron(sz, sz))):
                op = GenJordanOperator(HermitianMatrix(arr, TensorShape((2, 2, 2))))
                prod = gen_jordan(f.rep, g.rep, op).choi.array
                big = (
                    np.kron(z1, np.eye(2))
                    + embed_identity_array(z2, (2, 2), (2, 2, 2), (0, 2))
                )
                rhs = np.tensordot(prod.conj(), big, axes=2).real
                assert abs(lhs - rhs) < 1e-8


@pytest.mark.parametrize("make", [
    lambda: identity_channel(2),
    lambda: no_broadcast_witness(2),
    lambda: sdp.build_jordan_compat(dephasing_channel(2), identity_channel(2)),
], ids=["channel", "witness", "jordan_program"])
def test_pickle_round_trip(make):
    # process pools hand channels and programs (the Jordan program has a
    # map-image block) to their workers by pickling
    obj = make()
    assert _equal(pickle.loads(pickle.dumps(obj)), obj)


def _equal(a, b) -> bool:
    """Deep equality of channels, certificates and programs, array by array."""
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, HermitianMatrix):
        return a.shape == b.shape and np.array_equal(a.array, b.array)
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(_equal(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_equal, a, b))
    return a == b
