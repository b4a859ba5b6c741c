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
from qcc.jordan import a_jp, gen_jordan, jordan_channel, jordan_matrix
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
import qcc.sdp.problem as problem_mod
from qcc.sdp.decide import decide
from qcc.sdp.ipm import (_block_inverses, _chol_pd, _chol_solve, _corrector_rhs, _ct, _herm,
                         _nt_scaling, _steps_to_boundary, start_slack)
from qcc.sdp.problem import (
    IPM_SIDE_CAP,
    Block,
    Constraint,
    SdpOutcome,
    SdpProblem,
    _constraint_matrix,
    _eliminate,
    _plan_key,
    _structure_of,
    blocks_adjoint,
    certify,
    compile_ipm,
    constraints_adjoint,
    farkas_check,
    multipliers,
    primal_check,
    project_point,
)
from qcc.sdp.ipm import solve_ipm
import qcc.sdp.projection as projection_mod
from qcc.sdp.projection import ProjectionResult, product_point
from qcc.tolerances import DECISION_TOL, PSD_TOL, RANK_CUTOFF
from qcc.witness import no_broadcast_witness, verify_jordan_witness, verify_witness, witness_from_dual


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
        # below both caps: the builder refuses the side, and each solver
        # refuses the same program built without it
        with pytest.raises(sdp.SizeCapError, match=str(2 ** (k + 1))):
            sdp.build_k_extension(identity_channel(2), k)
        jid = identity_channel(2).choi.array
        cons = tuple(Constraint(tuple(i for i in range(1, k + 1) if i != a), jid)
                     for a in range(1, k + 1))
        problem = SdpProblem((2,) * (k + 1), cons, (Block(),))
        assert problem.side == TensorShape(problem.factors).dim == 2 ** (k + 1)
        for optimum in (True, False):
            with pytest.raises(sdp.SizeCapError, match=str(2 ** (k + 1))):
                sdp.solve(problem, optimum=optimum)

    @pytest.mark.parametrize("optimum", [True, False], ids=["interior_point", "projection"])
    def test_solver_cap_names_a_side_str_refuses(self, optimum):
        # a side of 4516 digits, above what str() converts
        problem = SdpProblem((2,) * 15000, (), (Block(),))
        with pytest.raises(sdp.SizeCapError, match="got a 15001-bit number"):
            sdp.solve(problem, optimum=optimum)

    @pytest.mark.parametrize("k", [300, 10 ** 6])
    def test_k_extension_over_cap_refused_before_building(self, k):
        # refused before the k constraints, O(k^3) to check, are built
        with pytest.raises(sdp.SizeCapError, match=f"2 \\* 2\\^{k}"):
            sdp.build_k_extension(identity_channel(2), k)

    def test_k_extension_at_the_size_cap_builds(self):
        # one cap for both modes: qubit k = 7 (side 256) is built, and
        # k = 8 (side 512) is refused before its constraints are
        assert sdp.build_k_extension(identity_channel(2), 7).side == IPM_SIDE_CAP
        with pytest.raises(sdp.SizeCapError, match=r"2 \* 2\^8 = 512, above the size cap"):
            sdp.build_k_extension(identity_channel(2), 8)

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

    @pytest.mark.parametrize("optimum", [True, False], ids=["interior_point", "projection"])
    def test_inconsistent_equalities_rejected(self, optimum):
        # the two marginals imply different traces of X
        problem = sdp.two_marginal_problem(np.eye(4), 2 * np.eye(4), (2, 2, 2))
        with pytest.raises(ValueError, match="equality constraints are inconsistent"):
            sdp.solve(problem, optimum=optimum)

    @pytest.mark.parametrize("optimum", [True, False], ids=["interior_point", "projection"])
    def test_term_side_mismatch_rejected(self, optimum):
        con = Constraint((1,), np.eye(3, dtype=np.complex128))
        with pytest.raises(ValueError, match=r"constraint tracing \(1,\) leaves side 2, "
                                             r"rhs has shape \(3, 3\)"):
            sdp.solve(SdpProblem((2, 2), (con,), (Block(),)), optimum=optimum)

    @pytest.mark.parametrize("optimum", [True, False], ids=["interior_point", "projection"])
    @pytest.mark.parametrize("traced, side, blocks, message", [
        ((5,), 4, (Block(),), "traced index 5 out of range for 2 factors"),
        ((-1,), 4, (Block(),), "traced index -1 out of range for 2 factors"),
        ((1, 1), 2, (Block(),), r"traced indices \(1, 1\) repeat a factor"),
    ], ids=["past_end", "negative", "repeated"])
    def test_bad_index_rejected_when_built(self, optimum, traced, side, blocks, message):
        # a bad index used to be dropped (projection found the program
        # feasible) or to fail inside numpy; the problem now refuses it
        con = Constraint(traced, np.eye(side) / side)
        with pytest.raises(ValueError, match=message):
            sdp.solve(SdpProblem((2, 2), (con,), blocks), optimum=optimum)

    @pytest.mark.parametrize("maps, count", [((None, "f"), 2), ((None, "f", "f", None), 4),
                                             ((), 0)], ids=["short", "long", "unset"])
    def test_map_image_needs_one_map_per_factor(self, maps, count):
        # a short tuple used to leave the last factors alone, and the
        # program solved to Infeasible; "unset" is an empty tuple, since a
        # block without maps (None) is X
        rep = identity_channel(2).rep
        block = Block(tuple(rep if m == "f" else None for m in maps))
        con = Constraint((1, 2), np.eye(2) / 2)
        with pytest.raises(ValueError, match=f"block 1 has {count} maps for 3 factors"):
            SdpProblem((2, 2, 2), (con,), (Block(), block))

    def test_map_input_dimension_checked_when_built(self):
        # a map from a dimension other than its factor's used to be built
        # and to fail only inside the compile
        narrow = random_channel(np.random.default_rng(9), 3, 2).rep
        con = Constraint((1, 2), np.eye(2) / 2)
        with pytest.raises(ValueError, match="block 0 has a map from dim 3 on factor 1 of dim 2"):
            SdpProblem((2, 2, 2), (con,), (Block((None, narrow, None)),))

    def test_blocks_of_different_sides_rejected(self):
        # the solver stacks the blocks on one array axis, so every image
        # has the side of the first
        widen = random_channel(np.random.default_rng(9), 2, 3).rep
        con = Constraint((1, 2), np.eye(2) / 2)
        block = Block((None, widen, None))
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

    def test_block_with_every_map_none_is_x(self):
        # such a block is X itself, so the program compiles to standard
        # form as the one whose block has no maps
        f, g = random_invertible_channel(np.random.default_rng(3), 2), identity_channel(2)
        plain = sdp.build_compat(f, g)
        none_maps = SdpProblem(plain.factors, plain.constraints, (Block((None, None, None)),))
        assert none_maps.one_block_is_x
        comp = compile_ipm(none_maps)
        assert comp.nullbasis is None and comp.m == compile_ipm(plain).m == 27
        assert sdp.solve(none_maps).status == sdp.solve(plain).status

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

    def test_infeasible_certificate_is_a_multiplier_sum(self):
        ident = identity_channel(2)
        problem = sdp.build_compat(ident, ident)
        out = sdp.solve(problem)
        assert out.status == "Infeasible"
        s = out.dual[0]
        assert abs(np.trace(s).real - 1.0) <= 1e-9
        assert np.abs(constraints_adjoint(problem, multipliers(problem, s)) - s).max() <= 1e-9

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
        rank = int(np.sum(s > RANK_CUTOFF * s[0]))
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
                    comp.S0[0], comp.plan.index, comp.plan.coef):
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = 1.0

    def test_warm_cache_still_rejects_inconsistent_rhs(self):
        consistent = sdp.two_marginal_problem(np.eye(4) / 2, np.eye(4) / 2, (2, 2, 2))
        inconsistent = sdp.two_marginal_problem(np.eye(4), 2 * np.eye(4), (2, 2, 2))
        assert _plan_key(consistent) == _plan_key(inconsistent)
        compile_ipm(consistent)
        misses = _structure_of.cache_info().misses
        for optimum in (True, False):
            with pytest.raises(ValueError, match="equality constraints are inconsistent"):
                sdp.solve(inconsistent, optimum=optimum)
        assert _structure_of.cache_info().misses == misses

    @pytest.mark.parametrize("kind", ["compat222", "compat333", "k3"])
    def test_cold_compile_equals_warm_compile_bitwise(self, kind):
        problem = _standard_program(kind)
        _structure_of.cache_clear()
        cold = compile_ipm(problem)
        cold_res = solve_ipm(cold.C_blocks, cold.A_blocks, cold.b, cold.S0, cold.Z0, cold.schur)
        # warm the cache with another right-hand side of the same structure
        _structure_of.cache_clear()
        compile_ipm(SdpProblem(
            problem.factors,
            tuple(dataclasses.replace(con, rhs=np.eye(con.rhs.shape[0]) / con.rhs.shape[0])
                  for con in problem.constraints),
            problem.blocks))
        # a fresh object: the problem itself holds its first elimination
        warm = compile_ipm(dataclasses.replace(problem))
        assert warm.A_blocks is not cold.A_blocks
        for name in ("x0", "b", "t0", "gmat"):
            assert np.array_equal(getattr(cold, name), getattr(warm, name)), name
        for name in ("S0", "Z0", "A_blocks", "C_blocks"):
            assert all(np.array_equal(c, w) for c, w in zip(getattr(cold, name),
                                                            getattr(warm, name))), name
        warm_res = solve_ipm(warm.C_blocks, warm.A_blocks, warm.b, warm.S0, warm.Z0, warm.schur)
        assert warm_res.iterations == cold_res.iterations
        assert np.array_equal(warm_res.y, cold_res.y)
        assert all(np.array_equal(c, w) for c, w in zip(cold_res.Z_blocks, warm_res.Z_blocks))

    def test_a_solve_eliminates_once(self, monkeypatch):
        calls = []
        eliminate = problem_mod._eliminate

        def counted(problem, read=None):
            calls.append(problem)
            return eliminate(problem, read)

        for module in (problem_mod, projection_mod, sdp):  # wherever the name is bound
            if hasattr(module, "_eliminate"):
                monkeypatch.setattr(module, "_eliminate", counted)
        # the product point and the round trip settle neither, so the solve
        # reads the elimination for the round trip and for the compile
        problem = sdp.build_k_extension(xi_channel(0.4, 0.2), 3)
        out = sdp.solve(problem, optimum=False)
        assert out.status == "Feasible" and out.note.startswith("stopped at a certified iterate")
        assert calls == [problem]
        # read-outs in the program's own field compute none
        project_point(problem, out.primal)
        multipliers(problem, np.eye(problem.side))
        assert len(calls) == 1
        # a read with an imaginary part is over the complex field, eliminated afresh
        skew = 1e-3j * (np.eye(problem.side, k=1) - np.eye(problem.side, k=-1))
        project_point(problem, out.primal + skew)
        assert len(calls) == 2

    def test_projection_and_null_space_reuse_the_elimination(self):
        rng = np.random.default_rng(8)
        xi = sdp.build_k_extension(xi_channel(0.4, 0.5), 3)
        # the field is part of the structure, so a real program warms it
        compile_ipm(sdp.build_k_extension(partial_depolarizing_channel(0.7, 2), 3))
        ppt = [sdp.build_compat(random_channel(rng, 2), random_channel(rng, 2), ppt=True)
               for _ in range(2)]
        compile_ipm(ppt[0])
        misses = _structure_of.cache_info().misses
        assert sdp.solve(xi, optimum=False).status == "Feasible"
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
        real, cplx = (sdp.solve(p, optimum=False) for p in (problem, phase_twin(problem)))
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


    @pytest.mark.parametrize("m", [20, 64, 65, 152])
    def test_matches_solve_on_spd_systems(self, rng, m):
        # one diagonal block up to 64, two and three beyond
        g = rng.normal(size=(m, m))
        h = g @ g.T + m * np.eye(m)
        l = np.linalg.cholesky(h)
        linvs = _block_inverses(l)
        assert len(linvs) == -(-m // 64)
        for rhs in rng.normal(size=(3, m)):
            ref = np.linalg.solve(h, rhs)
            assert np.linalg.norm(_chol_solve(l, linvs, rhs) - ref) <= 1e-12 * np.linalg.norm(ref)


class TestStepsToBoundary:
    """The step lengths read off the NT factors equal the largest alpha <= 1
    keeping S + alpha dS and Z + alpha dZ PSD, computed from the
    eigenvalues of the explicitly scaled stacks L^-1 dS L^-H, L L^H = S."""

    @staticmethod
    def _stack(rng, shape, cplx, shift):
        g = rng.normal(size=shape) + (1j * rng.normal(size=shape) if cplx else 0.0)
        return g @ _ct(g) + shift * np.eye(shape[-1])

    @staticmethod
    def _explicit(x, dx):
        l = np.linalg.cholesky(x)
        linv = np.linalg.inv(l)
        wmin = np.linalg.eigvalsh(linv @ dx @ _ct(linv)).min()
        return 1.0 if wmin >= -1e-14 else min(1.0, -1.0 / wmin)

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("size", [0.05, 3.0], ids=["full_step", "to_boundary"])
    def test_matches_scaled_eigenvalues(self, rng, cplx, size):
        shape = (2, 5, 5)
        s, z = self._stack(rng, shape, cplx, 1.0), self._stack(rng, shape, cplx, 1.0)
        ds, dz = (size * _herm(self._stack(rng, shape, cplx, 0.0) - self._stack(rng, shape, cplx, 0.0))
                  for _ in range(2))
        r, rinv, lam, _fell = _nt_scaling(np.stack([s, z]))
        isq = 1.0 / np.sqrt(lam)
        g = np.stack([rinv @ ds @ _ct(rinv), _ct(r) @ dz @ r])
        steps = _steps_to_boundary(isq[..., :, None] * isq[..., None, :], g)
        assert np.allclose(steps, [self._explicit(s, ds), self._explicit(z, dz)], rtol=1e-10, atol=0)
        if size < 1:
            assert steps == [1.0, 1.0]
        else:
            assert max(steps) < 1.0
            for x, dx, alpha in ((s, ds, steps[0]), (z, dz, steps[1])):
                # alpha reaches the boundary: the least eigenvalue is ~0 there
                assert abs(np.linalg.eigvalsh(x + alpha * dx).min()) <= 1e-9


class TestCorrectorRhs:
    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_matches_two_g_over_lambda_sums(self, rng, cplx):
        # gamma = 2 g / (lam_i + lam_j), g = sigma mu I - diag(lam)^2 - herm(gz gs)
        shape = (2, 6, 6)
        gs, gz = (_herm(rng.normal(size=shape) + (1j * rng.normal(size=shape) if cplx else 0.0))
                  for _ in range(2))
        lam = rng.uniform(0.1, 2.0, size=shape[:2])
        eye, sigma_mu = np.eye(6), 0.3
        gamma = _corrector_rhs(lam, gs, gz, sigma_mu, eye)
        g = sigma_mu * eye - (lam * lam)[:, :, None] * eye - _herm(gz @ gs)
        assert np.array_equal(gamma, 2.0 * g / (lam[:, :, None] + lam[:, None, :]))
        assert np.array_equal(gamma, _ct(gamma))
        for k in range(2):
            ref = np.array([[2.0 * g[k, i, j] / (lam[k, i] + lam[k, j]) for j in range(6)]
                            for i in range(6)])
            assert np.abs(gamma[k] - ref).max() <= 1e-14 * np.abs(ref).max()


class TestStartPoint:
    """The compile supplies S0, the objective shifted into the cone by the
    solver's one start rule, and in standard form a Z0 that is the same
    rule on the particular solution: each block M becomes
    M + (max(0, -lmin(M)) + START_MARGIN max(1, max |M|)) I."""

    @staticmethod
    def _assert_rule(start, data):
        # the least eigenvalue of each shifted block is START_MARGIN times
        # the block's scale past the cone's edge or past the data's own
        assert start.dtype == data.dtype and start.shape == data.shape
        for got, m in zip(start, data):
            want = max(0.0, np.linalg.eigvalsh(m)[0]) + sdp.ipm.START_MARGIN * max(1.0, np.abs(m).max())
            assert abs(np.linalg.eigvalsh(got)[0] - want) <= 1e-12
            assert np.allclose(got - m, (got - m)[0, 0] * np.eye(len(m)), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("kind", STANDARD_KINDS + list(NULL_SPACE_KINDS))
    def test_equals_the_in_solver_start(self, kind):
        null_space = kind in NULL_SPACE_KINDS
        comp = compile_ipm(_null_space_program(kind) if null_space else _standard_program(kind))
        assert np.array_equal(comp.S0, start_slack(comp.C_blocks))
        self._assert_rule(comp.S0, comp.C_blocks)
        if null_space:
            nblocks, n = comp.C_blocks.shape[:2]
            assert np.array_equal(comp.Z0, np.broadcast_to(np.eye(n) / (nblocks * n), comp.Z0.shape))
            return
        # Z0 is the particular solution shifted by the rule, and stays
        # primal feasible: A^*(Z0) = b
        x = vec_to_herm(comp.x0, comp.problem.side, comp.Z0.dtype.kind == "f")[None]
        self._assert_rule(comp.Z0, x)
        assert np.array_equal(comp.Z0, start_slack(x))
        a_star_z0 = np.einsum("mbij,bij->m", comp.A_blocks.conj(), comp.Z0).real
        assert np.abs(a_star_z0 - comp.b).max() <= 1e-12

    def test_data_not_in_the_cone_starts_at_the_margin(self):
        # an indefinite block and a PSD one with entries above 1, side by side
        data = np.array([[[0.5, 2.0], [2.0, 0.5]], [[3.0, 0.0], [0.0, 1.0]]])
        start = start_slack(data)
        self._assert_rule(start, data)
        margin = sdp.ipm.START_MARGIN
        assert np.allclose(np.linalg.eigvalsh(start)[:, 0], [2.0 * margin, 1.0 + 3.0 * margin], rtol=0.0, atol=1e-15)

    def test_standard_form_start_is_cached_per_structure(self):
        rng = np.random.default_rng(6)
        first, second = (compile_ipm(sdp.build_compat(random_channel(rng, 2), random_channel(rng, 2)))
                         for _ in range(2))
        assert first.S0 is second.S0 and not first.S0.flags.writeable


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


class TestNtScaling:
    def test_singular_block_falls_back_alone(self, rng):
        # the stacked Cholesky fails on the one PSD-singular block, so each
        # matrix is factored alone and only that one falls back; the PD
        # blocks come out as from a stack without it
        pd = [g @ g.T + 3 * np.eye(3) for g in rng.normal(size=(3, 3, 3))]
        s = np.stack([pd[0], np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])])
        z = np.stack([pd[1], pd[2]])
        r, rinv, lam, fell = _nt_scaling(np.stack([s, z]))
        assert fell == 1
        r0, rinv0, lam0, fell0 = _nt_scaling(np.stack([s[:1], z[:1]]))
        assert fell0 == 0
        for full, alone in ((r, r0), (rinv, rinv0), (lam, lam0)):
            np.testing.assert_array_equal(full[0], alone[0])

    def test_svd_failure_factors_the_conjugate_transpose(self, rng, monkeypatch):
        # gesdd can fail to converge on Lz^H Ls; the factors then come from
        # the SVD of its conjugate transpose and still scale both blocks
        g = rng.normal(size=(4, 5, 5)) + 1j * rng.normal(size=(4, 5, 5))
        pd = g @ _ct(g) + np.eye(5)
        s, z = pd[:2], pd[2:]
        svd, calls = np.linalg.svd, []

        def failing_first(a, *args, **kwargs):
            calls.append(a.shape)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing_first)
        r, rinv, lam, fell = _nt_scaling(np.stack([s, z]))
        assert len(calls) == 2 and fell == 0
        for i in range(2):
            diag = np.diag(lam[i])
            assert np.abs(_ct(r[i]) @ z[i] @ r[i] - diag).max() <= 1e-12
            assert np.abs(rinv[i] @ s[i] @ _ct(rinv[i]) - diag).max() <= 1e-12
            assert np.abs(rinv[i] @ r[i] - np.eye(5)).max() <= 1e-12


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
        for k, optimum in ((2, True), (3, True), (4, False)):
            out = sdp.solve(sdp.build_k_extension(xi, k), optimum=optimum)
            assert out.status == "Feasible", (k, out.status)

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            sdp.build_k_extension(identity_channel(2), 1)

    def test_projection_agrees_with_ipm_on_feasible(self, rng):
        for q in (0.4, 0.6, 0.8):
            f = partial_depolarizing_channel(q, 2)
            a = sdp.solve(sdp.build_k_extension(f, 2))
            b = sdp.solve(sdp.build_k_extension(f, 2), optimum=False)
            assert a.status == "Feasible" and b.status == "Feasible"
            x = b.primal
            assert np.linalg.eigvalsh(x).min() >= -1e-8
            assert np.abs(ptrace_array(x, (2, 2, 2), [2]) - f.choi.array).max() < 1e-7

    def test_projection_refutes_infeasible(self):
        # the identity has no k = 4 extension; the displacement between the
        # iterates is a trace-1 Farkas dual whose pairing bounds the optimum
        problem = sdp.build_k_extension(identity_channel(2), 4)
        out = sdp.solve(problem, optimum=False)
        assert out.status == "Infeasible" and out.primal is None
        assert out.iterations == 1
        report = certify(problem, out)
        assert report.valid, report.note
        assert out.value == report.margin
        assert abs(np.trace(out.dual[0]) - 1) <= 1e-12
        assert out.value >= sdp.solve(problem).value - 1e-9

    @pytest.mark.parametrize("p, q, feasible, refuted", [
        (0.2, 0.8, True, False), (0.1, 0.3, False, True), (0.4, 0.2, False, False)])
    def test_solve_dykstra_runs_one_round_trip(self, p, q, feasible, refuted):
        # a point, a refutation and neither: each after one round trip,
        # whose iterate x lies on the affine set
        problem = sdp.build_k_extension(xi_channel(p, q), 4)
        res = projection_mod.solve_dykstra(problem)
        assert res.iterations == 1
        assert (res.feasible, res.certificate is not None) == (feasible, refuted)
        for con in problem.constraints:
            assert np.abs(ptrace_array(res.x, problem.factors, con.traced) - con.rhs).max() <= 1e-12

    @pytest.mark.parametrize("optimum", [True, False], ids=["interior_point", "projection"])
    def test_xi_k6_point_where_gesdd_failed(self, optimum):
        # xi(0.8, 0.2) at k = 6 (side 128): LAPACK's gesdd failed on an NT
        # scaling product of this solve, which crashed the k = 6 sweep
        problem = sdp.build_k_extension(xi_channel(0.8, 0.2), 6)
        out = sdp.solve(problem, optimum=optimum)
        assert out.status == "Feasible", out.note
        assert certify(problem, out).valid

    @pytest.mark.parametrize("channel, optimum", [(xi_channel(0.1, 0.3), -0.0175),
                                                  (identity_channel(2), -0.1)], ids=["xi", "identity"])
    def test_zero_padded_witness_certifies_every_larger_k(self, channel, optimum):
        # zero multipliers on the added copies: the adjoint sum is the k = 3
        # one tensored with the identity, and the pairing is unchanged
        problem = sdp.build_k_extension(channel, 3)
        out = sdp.solve(problem)
        assert out.status == "Infeasible" and abs(out.value - optimum) <= 1e-6
        ys = multipliers(problem, out.dual[0])
        margin = farkas_check(problem, ys).margin
        for k in (4, 5, 6):
            report = farkas_check(sdp.build_k_extension(channel, k),
                                  ys + [np.zeros_like(ys[0])] * (k - 3))
            assert report.valid, (k, report.note)
            assert report.margin == margin

    def test_projection_stops_the_interior_point_at_a_certified_iterate(self):
        # the sweeps neither reach a point nor refute xi(0.8, 0) at k = 2,
        # whose optimum is -5e-3; the interior point stops at the first
        # iterate whose trace-1 dual passes its check, and its pairing
        # bounds the optimum from above
        problem = sdp.build_k_extension(xi_channel(0.8, 0.0), 2)
        res = projection_mod.solve_dykstra(problem)
        assert not res.feasible and res.certificate is None
        out, ipm = sdp.solve(problem, optimum=False), sdp.solve(problem)
        assert out.status == ipm.status == "Infeasible"
        report = certify(problem, out)
        assert report.valid, report.note
        assert out.value == report.margin
        assert out.iterations < ipm.iterations
        assert ipm.value - 1e-9 <= out.value <= -DECISION_TOL
        assert out.primal is None and abs(np.trace(out.dual[0]) - 1) <= 1e-12
        assert "psd_violation" not in out.residuals
        assert out.note.startswith("stopped at a certified iterate")

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_projection_early_stop_on_the_xi_grid(self, k):
        # grid 6: every projection verdict is the converged interior point's,
        # and where the product point and the round trip settle nothing the
        # interior point stops early, with its value on the certificate's
        # side of the optimum
        stopped = converged = 0
        for p, q in itertools.product(np.linspace(0, 1, 6), repeat=2):
            if p + q > 1 + 1e-12:
                continue
            problem = sdp.build_k_extension(xi_channel(p, q), k)
            ipm, proj = sdp.solve(problem), sdp.solve(problem, optimum=False)
            assert proj.status == ipm.status, (p, q)
            if proj.note.startswith("product point"):
                assert proj.status == "Feasible" and proj.value <= ipm.value + 1e-9, (p, q)
                continue
            if "psd_violation" in proj.residuals:
                continue
            assert proj.note.startswith("stopped at a certified iterate"), (p, q)
            if proj.status == "Feasible":
                assert proj.value <= ipm.value + 1e-9, (p, q)
            else:
                assert proj.value >= ipm.value - 1e-9, (p, q)
            stopped += proj.iterations
            converged += ipm.iterations
        assert 0 < stopped < converged

    def test_refused_candidates_run_to_convergence(self, monkeypatch):
        # a check that refuses every single-certificate candidate leaves the
        # interior point to converge, and the outcome is the converged solve
        problem = sdp.build_k_extension(xi_channel(0.8, 0.0), 2)
        ipm = sdp.solve(problem)
        checked = []

        def refusing(prob, out):
            report = certify(prob, out)
            if out.primal is None or out.dual is None:
                checked.append(out.status)
                return dataclasses.replace(report, valid=False, note="refused")
            return report

        monkeypatch.setattr(sdp, "certify", refusing)
        out = sdp.solve(problem, optimum=False)
        assert checked
        assert (out.status, out.value, out.iterations, out.note) == (
            ipm.status, ipm.value, ipm.iterations, ipm.note)
        assert out.residuals == ipm.residuals
        assert out.primal is not None and out.dual is not None

    def test_a_refused_first_candidate_stops_later(self, monkeypatch):
        problem = sdp.build_k_extension(xi_channel(0.8, 0.0), 2)
        first = sdp.solve(problem, optimum=False)
        calls = []

        def refusing_first(prob, out):
            calls.append(out.status)
            report = certify(prob, out)
            return dataclasses.replace(report, valid=False) if len(calls) == 1 else report

        monkeypatch.setattr(sdp, "certify", refusing_first)
        out = sdp.solve(problem, optimum=False)
        assert len(calls) == 2  # the passing candidate is checked once, and only there
        assert out.status == first.status and out.iterations == first.iterations + 1
        assert out.note.startswith("stopped at a certified iterate")

    def test_interior_point_mode_passes_no_stop(self, monkeypatch):
        # interior_point mode is the converged solve it was: no predicate,
        # and a predicate that never stops changes nothing in the result
        problem = sdp.build_k_extension(xi_channel(0.8, 0.0), 2)
        stops = []

        def spied(*args):
            stops.append(args[6:])
            return solve_ipm(*args)

        monkeypatch.setattr(sdp, "solve_ipm", spied)
        out = sdp.solve(problem)
        assert stops == [(None,)]
        assert out.iterations == 6 and abs(out.value + 5e-3) <= 1e-9
        comp = compile_ipm(problem)
        args = (comp.C_blocks, comp.A_blocks, comp.b, comp.S0, comp.Z0, comp.schur)
        plain, never = solve_ipm(*args), solve_ipm(*args, stop=lambda res: False)
        for f in dataclasses.fields(plain):
            a, b = getattr(plain, f.name), getattr(never, f.name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name

    @pytest.mark.parametrize("doctor, note", [
        (lambda w: np.eye(len(w)) / len(w), r"Farkas certificate fails: pairing 0\.\d"),
        (lambda w: w - 0.1 * np.eye(len(w)), r"Farkas certificate fails: pairing -.*least eigenvalue -0\.1,"),
    ], ids=["pairs_positive", "not_psd"])
    def test_projection_refutation_is_rechecked(self, monkeypatch, doctor, note):
        # a round-trip refutation must survive farkas_check; one that fails
        # it is dropped, and the early-stopped interior point refutes
        problem = sdp.build_k_extension(xi_channel(0.1, 0.3), 4)
        res = projection_mod.solve_dykstra(problem)
        assert res.certificate is not None
        w = doctor(res.certificate)
        report = certify(problem, SdpOutcome("Infeasible", float("nan"), dual=w[None]))
        assert not report.valid and re.match(note, report.note), report.note
        bad = ProjectionResult(False, res.x, res.violation, res.iterations, w)
        monkeypatch.setattr(sdp, "solve_dykstra", lambda prob: bad)
        out = sdp.solve(problem, optimum=False)
        assert out.status == "Infeasible" and not np.array_equal(out.dual[0], w)
        assert out.note.startswith("stopped at a certified iterate"), out.note
        assert certify(problem, out).valid

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_projection_refutations_on_the_xi_grid(self, k):
        # grid 6: projection's verdict is the interior point's, the round
        # trip refutes every Infeasible point but xi(0.4, 0.2) at k = 4 and
        # 5, which the early-stopped interior point refutes, and every
        # refutation is certified with a pairing at or above the optimum
        refuted, by_round_trip = 0, []
        for p, q in itertools.product(np.linspace(0, 1, 6), repeat=2):
            if p + q > 1 + 1e-12:
                continue
            problem = sdp.build_k_extension(xi_channel(p, q), k)
            ipm, proj = sdp.solve(problem), sdp.solve(problem, optimum=False)
            assert proj.status == ipm.status, (p, q)
            if proj.status == "Infeasible":
                refuted += 1
                if "psd_violation" in proj.residuals:
                    by_round_trip.append((p, q))
                else:
                    assert proj.note.startswith("stopped at a certified iterate"), (p, q)
                    assert (round(p, 12), round(q, 12)) == (0.4, 0.2), (p, q)
                assert certify(problem, proj).valid, (p, q)
                assert proj.value >= ipm.value - 1e-9, (p, q)
        assert refuted == {3: 8, 4: 9, 5: 9}[k]
        assert len(by_round_trip) == 8

    @staticmethod
    def _off_affine(problem, x):
        # the identity is PSD, and its marginals are far from the states'
        return np.eye(problem.side, dtype=np.complex128)

    @staticmethod
    def _off_psd(problem, x):
        # a step along a direction every constraint maps to zero
        rows = _eliminate(problem)[0].vh
        h = herm_to_vec(random_hermitian(np.random.default_rng(3), problem.side).real, True)
        kernel = vec_to_herm(h - rows.T @ (rows @ h), problem.side, True)
        return x + 10 * kernel / np.abs(kernel).max()

    @pytest.mark.parametrize("doctor, note", [
        ("_off_affine", r"constraint tracing \(2,\) is off its rhs by"),
        ("_off_psd", r"block 0 has least eigenvalue -"),
    ], ids=["off_affine", "not_psd"])
    def test_projection_feasible_is_rechecked(self, monkeypatch, doctor, note):
        # a round-trip point must survive a check that reads only the
        # problem and X, not the solver's elimination; one that fails it is
        # dropped, and the early-stopped interior point finds a point.  The
        # marginals of a real joint state: their input marginal is not I,
        # so the product point misses them and the round trip settles it
        a = np.random.default_rng(2).normal(size=(8, 8))
        rho = a @ a.T / np.trace(a @ a.T)
        problem = sdp.build_state_compat(HermitianMatrix(ptrace_array(rho, (2, 2, 2), [2]), (2, 2)),
                                         HermitianMatrix(ptrace_array(rho, (2, 2, 2), [1]), (2, 2)))
        assert problem.real
        first = sdp.solve(problem, optimum=False)
        assert first.note.startswith("round trip"), first.note
        bad = getattr(self, doctor)(problem, first.primal)
        report = primal_check(problem, bad, DECISION_TOL, DECISION_TOL)
        assert not report.valid and re.match(note, report.note), report.note
        monkeypatch.setattr(sdp, "solve_dykstra", lambda prob: ProjectionResult(True, bad, 0.0, 1))
        out = sdp.solve(problem, optimum=False)
        assert out.status == "Feasible" and not np.array_equal(out.primal, bad)
        assert out.note.startswith("stopped at a certified iterate"), out.note
        assert primal_check(problem, out.primal, DECISION_TOL, DECISION_TOL).valid


class TestProductPoint:
    """A solve without ``optimum`` of a program whose one block is X first
    tries the product point: the average over orderings of the product of
    the embedded right-hand sides, kept only where ``certify`` passes it."""

    @staticmethod
    def _noisy(rng, d):
        # half depolarized, so that the pair's Jordan product is CP
        return mix_channels(random_channel(rng, d), depolarizing_channel(d), 0.5)

    @pytest.mark.parametrize("d", [2, 3])
    def test_is_the_jordan_product(self, d):
        rng = np.random.default_rng(d)
        for _ in range(5):
            f, g = self._noisy(rng, d), self._noisy(rng, d)
            x = product_point(sdp.build_compat(f, g))
            assert x is not None
            assert np.abs(x - jordan_channel(f.rep, g.rep).choi.array).max() <= 1e-15

    def test_is_the_average_over_orderings(self):
        # three different channels on copies 1..3 of a k = 3 structure
        rng = np.random.default_rng(5)
        chans = [self._noisy(rng, 2) for _ in range(3)]
        factors = (2, 2, 2, 2)
        cons = tuple(Constraint(tuple(i for i in (1, 2, 3) if i != a), c.choi.array)
                     for a, c in zip((1, 2, 3), chans))
        problem = SdpProblem(factors, cons, (Block(),))
        embedded = [embed_identity_array(c.choi.array, (2, 2), factors, (0, a))
                    for a, c in zip((1, 2, 3), chans)]
        orders = list(itertools.permutations(embedded))
        avg = sum(functools.reduce(np.matmul, order) for order in orders) / len(orders)
        x = product_point(problem)
        assert x is not None and np.abs(x - (avg + avg.conj().T) / 2).max() <= 1e-15

    def test_embeds_a_point_held_on_fewer_factors(self):
        # every constraint also traces out factor 4, so the sums are held
        # on factors 0..3 and the point is embedded with I on factor 4
        rng = np.random.default_rng(5)
        chans = [self._noisy(rng, 2) for _ in range(3)]
        factors = (2, 2, 2, 2, 3)
        cons = tuple(Constraint(tuple(i for i in (1, 2, 3, 4) if i != a), c.choi.array)
                     for a, c in zip((1, 2, 3), chans))
        problem = SdpProblem(factors, cons, (Block(),))
        embedded = [embed_identity_array(c.choi.array, (2, 2), factors, (0, a))
                    for a, c in zip((1, 2, 3), chans)]
        orders = list(itertools.permutations(embedded))
        avg = sum(functools.reduce(np.matmul, order) for order in orders) / len(orders)
        x = product_point(problem)
        assert x is not None and x.shape == (48, 48)
        assert np.abs(x - (avg + avg.conj().T) / 2).max() <= 1e-15

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_k_fold_point_meets_every_marginal(self, k):
        problem = sdp.build_k_extension(xi_channel(0.4, 0.5), k)
        x = product_point(problem)
        assert x is not None and x.dtype == np.float64
        for con in problem.constraints:
            assert np.abs(ptrace_array(x, problem.factors, con.traced) - con.rhs).max() <= 1e-13
        out = sdp.solve(problem, optimum=False)
        assert (out.status, out.value, out.iterations) == ("Feasible", 0.0, 0)
        assert out.note == "product point: the value is a lower bound on the optimum"
        assert np.array_equal(out.primal, x) and out.dual is None
        assert primal_check(problem, out.primal, DECISION_TOL, DECISION_TOL).valid

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_not_psd_is_none(self, k):
        # xi(0.2, 0.3) has a k = 2 product point, and none from k = 3 on
        assert product_point(sdp.build_k_extension(xi_channel(0.2, 0.3), 2)) is not None
        assert product_point(sdp.build_k_extension(xi_channel(0.2, 0.3), k)) is None

    @pytest.mark.parametrize("doctor", [lambda x: np.eye(len(x)), lambda x: x - 0.1 * np.eye(len(x))],
                             ids=["off_affine", "not_psd"])
    def test_doctored_product_falls_through(self, monkeypatch, doctor):
        # a product point that fails its check is dropped, and the solve
        # goes on to the round trip and the interior point as before
        problem = sdp.build_k_extension(xi_channel(0.4, 0.5), 4)
        bad = doctor(product_point(problem))
        assert not primal_check(problem, bad, DECISION_TOL, DECISION_TOL).valid
        monkeypatch.setattr(sdp, "product_point", lambda prob: bad)
        out = sdp.solve(problem, optimum=False)
        assert out.status == sdp.solve(problem).status == "Feasible"
        assert not out.note.startswith("product point") and not np.array_equal(out.primal, bad)
        assert primal_check(problem, out.primal, DECISION_TOL, DECISION_TOL).valid

    def test_state_marginals_are_decided(self):
        # a joint state's marginals: their input marginal is not I, so the
        # product point is PSD but misses them, and the solve goes on
        rho = random_density(np.random.default_rng(6), 8)
        problem = sdp.build_state_compat(HermitianMatrix(ptrace_array(rho, (2, 2, 2), [2]), (2, 2)),
                                         HermitianMatrix(ptrace_array(rho, (2, 2, 2), [1]), (2, 2)))
        x = product_point(problem)
        assert x is not None
        assert re.match("constraint tracing", primal_check(problem, x, DECISION_TOL, DECISION_TOL).note)
        out = sdp.solve(problem, optimum=False)
        assert out.status == sdp.solve(problem).status == "Feasible"
        assert not out.note.startswith("product point")
        assert certify(problem, out).valid

    def test_inconsistent_rhs_raise_before_the_product_is_taken(self):
        # rhs 2 is off trace preservation by 1e-8: within the point check's
        # DECISION_TOL, so the product point passes it, but not within the
        # consistency check's MARGINAL_TOL
        noisy = partial_depolarizing_channel(0.8, 2)
        problem = sdp.two_marginal_problem(noisy.choi.array, (1 + 1e-8) * noisy.choi.array, (2, 2, 2))
        x = product_point(problem)
        assert x is not None and primal_check(problem, x, DECISION_TOL, DECISION_TOL).valid
        with pytest.raises(ValueError, match="equality constraints are inconsistent"):
            sdp.solve(problem, optimum=False)

    def test_many_constraints_take_no_product(self):
        # the trace map's k = 20 extension has side 2 and 20 constraints,
        # whose 20 * (2^19 - 1) products the attempt does not take
        trace_map = Channel.from_choi(np.eye(2), 2)
        problem = sdp.build_k_extension(trace_map, 20)
        assert product_point(problem) is None
        out = sdp.solve(problem, optimum=False)
        assert out.status == "Feasible" and certify(problem, out).valid

    def test_optimum_solves_take_no_product(self, monkeypatch):
        monkeypatch.setattr(sdp, "product_point", lambda prob: pytest.fail("product point taken"))
        out = sdp.solve(sdp.build_k_extension(xi_channel(0.4, 0.5), 3))
        assert out.status == "Feasible" and out.dual is not None


def _adjoint_range_projection(problem, m):
    """M projected onto the span of the constraint adjoints Tr_c^*(E_p), by
    least squares over the complex Hermitian coordinates of every E_p."""
    cols = []
    for con in problem.constraints:
        kept = [i for i in range(len(problem.factors)) if i not in con.traced]
        dims = [problem.factors[i] for i in kept]
        basis = hermitian_basis(int(np.prod(dims)))
        cols.append(herm_to_vec(embed_identity_array(basis, dims, problem.factors, kept)))
    k = np.vstack(cols).T
    return vec_to_herm(k @ np.linalg.lstsq(k, herm_to_vec(m), rcond=None)[0], problem.side)


def _rng7_ppt_pair(index=0):
    """Pair ``index`` of the ``default_rng(7)`` qubit pairs.  Pair 0 fails the
    transposed-marginal relaxation; pair 9, the first of seven in 140, passes
    it and fails the full PPT program."""
    rng = np.random.default_rng(7)
    return [(random_channel(rng, 2), random_channel(rng, 2)) for _ in range(index + 1)][-1]


class TestReadOut:
    """``multipliers`` reads a Farkas certificate out of any program's
    solve: standard form (k-extensions) and null-space form (the Jordan
    program, the full PPT program with its two blocks)."""

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: sdp.build_k_extension(xi_channel(0.0, 0.1), 2), id="k2"),
        pytest.param(lambda: sdp.build_k_extension(xi_channel(0.0, 0.1), 3), id="k3"),
        pytest.param(lambda: sdp.build_k_extension(xi_channel(0.0, 0.1), 4), id="k4"),
        pytest.param(lambda: sdp.build_jordan_compat(identity_channel(2), identity_channel(2)),
                     id="jordan-identity"),
        pytest.param(lambda: sdp.build_compat(*_rng7_ppt_pair(), ppt=True), id="ppt-stage-b"),
    ])
    def test_multipliers_certify_infeasible_solves(self, build):
        problem = build()
        out = sdp.solve(problem)
        assert out.status == "Infeasible"
        m = blocks_adjoint(problem, out.dual)
        ys = multipliers(problem, m)
        proj = _adjoint_range_projection(problem, m)
        assert np.linalg.norm(constraints_adjoint(problem, ys) - proj) <= 1e-12
        report = farkas_check(problem, ys, out.dual)
        assert report.valid, report.note
        assert abs(report.margin - out.value) <= 1e-8

    def test_farkas_failure_is_named(self):
        problem = sdp.build_k_extension(xi_channel(0.4, 0.5), 2)
        out = sdp.solve(problem)
        assert out.status == "Feasible"
        report = farkas_check(problem, multipliers(problem, out.dual[0]))
        assert not report.valid and report.note.startswith("Farkas certificate fails: pairing 0.")

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_projected_point_meets_the_constraints(self, rng, k):
        f = random_channel(rng, 2)
        problem = sdp.build_k_extension(f, k)
        x = random_hermitian(rng, problem.side)
        p = project_point(problem, x)
        assert primal_check(problem, p, 1e-12, np.inf).valid
        # the step is orthogonal to the constraints' affine set
        other = project_point(problem, random_hermitian(rng, problem.side))
        assert abs(np.vdot(x - p, other - p)) <= 1e-10

    def test_complex_matrix_on_a_real_program_is_read_over_the_complex_field(self, rng):
        # the real field would drop the imaginary part of the point and of M
        problem = sdp.build_k_extension(xi_channel(0.1, 0.3), 2)
        assert problem.real
        x = random_hermitian(rng, problem.side)
        p = project_point(problem, x)
        assert np.abs(p.imag).max() > 0.1
        assert primal_check(problem, p, 1e-12, np.inf).valid
        other = project_point(problem, random_hermitian(rng, problem.side))
        assert abs(np.vdot(x - p, other - p)) <= 1e-10
        m = constraints_adjoint(problem, [random_hermitian(rng, 4) for _ in problem.constraints])
        assert np.abs(constraints_adjoint(problem, multipliers(problem, m)) - m).max() <= 1e-12

    def test_certify_checks_the_certificate_of_the_status(self):
        problem = sdp.build_k_extension(identity_channel(2), 3)
        out = sdp.solve(problem)
        assert out.status == "Infeasible"
        assert certify(problem, out).valid
        # the same dual read as a point's certificate is no point of the program
        assert not certify(problem, dataclasses.replace(out, status="Feasible", primal=out.dual[0])).valid
        # two blocks: the duals of X and X^Gamma with the multipliers of their adjoint sum
        problem = sdp.build_compat(*_rng7_ppt_pair(9), ppt=True)
        out = sdp.solve(problem)
        assert out.status == "Infeasible" and out.dual.shape[0] == 2
        report = certify(problem, out)
        assert report.valid, report.note
        flipped = certify(problem, dataclasses.replace(out, dual=-out.dual))
        assert not flipped.valid and flipped.note.startswith("Farkas certificate fails: pairing 0.")


def _shift_duals(res):
    """Both sides of an interior-point result 0.1 below PSD, so the dual
    certificate of either form is no Farkas certificate."""
    shift = 0.1 * np.eye(res.S_blocks.shape[-1])
    return dataclasses.replace(res, S_blocks=res.S_blocks - shift, Z_blocks=res.Z_blocks - shift)


def _move_point(res):
    """An interior-point result's point moved: in standard form X = 2W + tI,
    off its constraints; in null-space form a free coordinate 100 further,
    along a traceless direction, so off PSD."""
    y = res.y.copy()
    y[0] += 100.0
    return dataclasses.replace(res, y=y, Z_blocks=2 * res.Z_blocks)


class TestSolveCertifies:
    """``sdp.solve`` reports an interior-point verdict only with its
    certificate checked on the program, for every block kind: a doctored
    point or dual ends Inconclusive with the check's note."""

    @pytest.mark.parametrize("build, status, doctor, note", [
        pytest.param(lambda: sdp.build_compat(identity_channel(2), identity_channel(2)),
                     "Infeasible", _shift_duals, "Farkas certificate fails", id="compat-dual"),
        pytest.param(lambda: sdp.build_compat(*(partial_depolarizing_channel(0.8, 2),) * 2),
                     "Feasible", _move_point, "constraint tracing", id="compat-point"),
        pytest.param(lambda: sdp.build_compat(*_rng7_ppt_pair(9), ppt=True),
                     "Infeasible", _shift_duals, "Farkas certificate fails", id="ppt-stage-b-dual"),
        pytest.param(lambda: sdp.build_compat(*(partial_depolarizing_channel(0.8, 2),) * 2, ppt=True),
                     "Feasible", _move_point, "block [01] has least eigenvalue", id="ppt-stage-b-point"),
        pytest.param(lambda: sdp.build_jordan_compat(identity_channel(2), identity_channel(2)),
                     "Infeasible", _shift_duals, "Farkas certificate fails", id="jordan-dual"),
        pytest.param(lambda: sdp.build_jordan_compat(dephasing_channel(2), dephasing_channel(2)),
                     "Feasible", _move_point, "block 0 has least eigenvalue", id="jordan-point"),
        pytest.param(lambda: sdp.build_k_extension(identity_channel(2), 3),
                     "Infeasible", _shift_duals, "Farkas certificate fails", id="k3-dual"),
        pytest.param(lambda: sdp.build_k_extension(xi_channel(0.4, 0.4), 3),
                     "Feasible", _move_point, "constraint tracing", id="k3-point"),
    ])
    def test_doctored_interior_point_certificate_is_inconclusive(self, monkeypatch, build, status,
                                                                 doctor, note):
        problem = build()
        honest = sdp.solve(problem)
        assert honest.status == status, honest.note
        monkeypatch.setattr(sdp, "solve_ipm", lambda *args: doctor(solve_ipm(*args)))
        out = sdp.solve(problem)
        assert out.status == "Inconclusive" and re.match(note, out.note), out.note
        assert out.primal is None and out.dual is None
        assert out.iterations == honest.iterations


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
            problem = sdp.build_povm_compat(m, n)
            report = verify_witness(witness_from_dual(out.dual[0], problem, "plain"), f, g)
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

    @pytest.mark.parametrize("mode", ["compat", "jordan", "ppt_compat"])
    def test_identity_pair_runs_no_interior_point(self, monkeypatch, mode):
        # the round trip refutes the program, so no solve reaches the interior point
        calls = []
        monkeypatch.setattr(sdp, "solve_ipm", lambda *args: calls.append(args) or solve_ipm(*args))
        ident = identity_channel(2)
        dec = decide(ident, ident, mode)
        assert dec.verdict == "Incompatible" and "psd_violation" in dec.outcome.residuals
        assert calls == []

    def test_ppt_stage_b_runs_no_round_trip(self, monkeypatch):
        # the full PPT program has two blocks, X and its partial transpose,
        # so its solve goes straight to the early-stopped interior point;
        # the relaxation's product point is not PSD here, so it reaches
        # the round trip
        solved = []
        real = sdp.solve_dykstra
        monkeypatch.setattr(sdp, "solve_dykstra", lambda problem: solved.append(problem.name) or real(problem))
        noisy = partial_depolarizing_channel(0.7, 2)
        dec = decide(noisy, noisy, "ppt_compat")
        assert dec.verdict == "Compatible"
        assert dec.outcome.note.startswith("stopped at a certified iterate")
        assert solved == ["ppt_relaxation"]

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

    def test_multipliers_reproduce_adjoint_sum_and_margin(self, rng):
        # every factor a different size (2, 3, 4), so a swapped factor order fails
        z1 = random_hermitian(rng, 6)
        z2 = random_hermitian(rng, 8)
        f = random_channel(rng, 2, 3)
        g = random_channel(rng, 2, 4)
        problem = sdp.build_compat(f, g)
        big = constraints_adjoint(problem, (z1, z2))
        s1, s2 = multipliers(problem, big)
        assert np.abs(constraints_adjoint(problem, (s1, s2)) - big).max() < 1e-12

        def margin(a, b):
            return (np.vdot(a, f.choi.array) + np.vdot(b, g.choi.array)).real

        assert abs(margin(s1, s2) - margin(z1, z2)) < 1e-12

    @pytest.mark.parametrize("mode, margin", [("compat", -0.0917517), ("ppt_compat", -0.5)])
    def test_unequal_output_sizes(self, mode, margin):
        # the margins are the optima, so each solve converges
        v = np.zeros((3, 2))
        v[0, 0] = v[1, 1] = 1.0
        omega = v.T.reshape(-1)
        iso = Channel.from_choi(np.outer(omega, omega), 2)
        ident = identity_channel(2)
        for f, g in ((ident, iso), (iso, ident)):
            dec = decide(f, g, mode, optimum=True)
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
    def cap_at_one(self, monkeypatch, no_round_trip):
        # decide()'s solves on the identity pair stop at their first
        # iterate after the start, so only a cap of one reaches them
        monkeypatch.setattr(sdp.ipm, "MAX_ITER", 1)

    def test_solve_reports_cap(self):
        ident = identity_channel(2)
        out = sdp.solve(sdp.build_compat(ident, ident))
        assert out.status == "Inconclusive"
        assert out.note == "iteration cap exceeded"
        assert out.iterations == 1
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
    residuals are: after four iterations the gap is 6.9e-9 and 7.3e-9 on
    these pairs, inside DECISION_TOL, and that is still no verdict.
    decide()'s solves would stop at the first iterate, whose certificate
    passes, so every single certificate's check is refused here."""

    @pytest.fixture(autouse=True)
    def cap_at_four(self, monkeypatch, no_round_trip):
        monkeypatch.setattr(sdp.ipm, "MAX_ITER", 4)
        real = sdp.certify

        def refusing(problem, out):
            report = real(problem, out)
            single = out.primal is None or out.dual is None
            return dataclasses.replace(report, valid=False, note="refused") if single else report

        monkeypatch.setattr(sdp, "certify", refusing)

    @pytest.mark.parametrize("channel", [identity_channel(2), partial_depolarizing_channel(0.6, 2)],
                             ids=["identity", "depol0.6"])
    def test_solve_and_decide(self, channel):
        out = sdp.solve(sdp.build_compat(channel, channel))
        assert out.status == "Inconclusive"
        assert out.note == "iteration cap exceeded"
        assert out.primal is None and out.dual is None
        _assert_inconclusive(decide(channel, channel), "iteration cap exceeded")


@pytest.mark.usefixtures("no_round_trip")
class TestHonestInconclusive:
    """Each exit where decide() or the check in sdp.solve finds the
    solver's answer unusable, forced by doctoring one solve's outcome or
    its interior-point result: Inconclusive with a reason, exit code 2 and
    no certificate."""

    @staticmethod
    def _doctor(monkeypatch, name, change):
        """Pass the outcome of every solve of the program called ``name``
        through ``change`` before decide() sees it."""
        real = decide_mod.solve

        def doctored(problem, **kwargs):
            out = real(problem, **kwargs)
            return change(out) if problem.name == name else out

        monkeypatch.setattr(decide_mod, "solve", doctored)

    @pytest.mark.parametrize("mode, blocks, note, q", [
        ("compat", 1, "constraint tracing", 0.4),
        ("ppt_compat", 2, "block [01] has least eigenvalue", 0.8),
    ], ids=["compat", "ppt_compat"])
    def test_primal_check_fails(self, monkeypatch, mode, blocks, note, q):
        # the point of the solve of the program with ``blocks`` blocks is
        # moved; the check in sdp.solve refuses it and decide hands on its
        # note.  The compat program's product point is not PSD at q = 0.4,
        # so that solve reaches the interior point
        noisy = partial_depolarizing_channel(q, 2)
        assert decide(noisy, noisy, mode).verdict == "Compatible"

        def doctored(C_blocks, *args):
            if len(C_blocks) != blocks:
                return solve_ipm(C_blocks, *args)
            # an early stop checks the iterates, so they are moved too
            stop = args[5]
            moved = None if stop is None else (lambda res: stop(_move_point(res)))
            return _move_point(solve_ipm(C_blocks, *args[:5], moved))

        monkeypatch.setattr(sdp, "solve_ipm", doctored)
        dec = decide(noisy, noisy, mode)
        _assert_inconclusive(dec, "")
        assert re.match(note, dec.note), dec.note

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

    def test_refuted_ppt_program_is_named(self):
        # stage A is feasible and stage B refuted by a checked Farkas
        # certificate, which no ppt-format witness carries yet
        dec = decide(*_rng7_ppt_pair(9), "ppt_compat")
        assert dec.outcome.status == "Infeasible"
        _assert_inconclusive(dec, "transposed-marginal relaxation is feasible but the full PPT "
                                  "program is refuted by a checked Farkas certificate with "
                                  "pairing -1.624e-03, which has no witness")

    def test_inconclusive_ppt_program_keeps_its_note(self, monkeypatch):
        self._doctor(monkeypatch, "ppt_compat", lambda out: SdpOutcome(
            "Inconclusive", out.value, iterations=out.iterations, note="iteration cap exceeded"))
        dec = decide(*_rng7_ppt_pair(9), "ppt_compat")
        _assert_inconclusive(dec, "iteration cap exceeded")
        assert dec.note == "iteration cap exceeded"

    @pytest.mark.parametrize("mode", ["compat", "jordan", "ppt_compat"])
    def test_step_collapse(self, monkeypatch, mode):
        monkeypatch.setattr(sdp.ipm, "_steps_to_boundary", lambda scale, g: (0.0, 0.0))
        ident = identity_channel(2)
        out = sdp.solve(sdp.build_compat(ident, ident))
        assert out.status == "Inconclusive" and out.note == "step collapse"
        assert out.iterations == 1 and out.primal is None and out.dual is None
        _assert_inconclusive(decide(ident, ident, mode), "step collapse")


def _lapack_failure(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


class TestLapackFailureIsInconclusive:
    """numpy's LinAlgError subclasses ValueError; raised inside sdp.solve
    (forced here through monkeypatch) it makes the solve Inconclusive with
    a note naming it, instead of reaching the caller."""

    @pytest.mark.parametrize("name, optimum", [
        ("solve_dykstra", False),
        ("compile_ipm", True),
        ("solve_ipm", True),
        ("certify", True),
        ("certify", False),  # the check of an iterate candidate
    ], ids=["solve_dykstra-projection", "compile_ipm-interior_point", "solve_ipm-interior_point",
            "certify-interior_point", "certify-projection"])
    def test_solve(self, monkeypatch, name, optimum):
        # xi(0.4, 0.2) at k = 4: the round trip settles nothing, so the
        # solve without optimum reaches the early-stopped interior point
        problem = sdp.build_k_extension(xi_channel(0.4, 0.2), 4)
        assert sdp.solve(problem, optimum=optimum).status == "Infeasible"
        monkeypatch.setattr(sdp, name, _lapack_failure)
        out = sdp.solve(problem, optimum=optimum)
        assert out.status == "Inconclusive"
        assert out.note == "LAPACK failure: SVD did not converge"
        assert out.primal is None and out.dual is None

    @pytest.mark.parametrize("mode", ["compat", "jordan", "ppt_compat"])
    def test_decide(self, monkeypatch, no_round_trip, mode):
        monkeypatch.setattr(sdp, "solve_ipm", _lapack_failure)
        _assert_inconclusive(decide(identity_channel(2), identity_channel(2), mode),
                             "LAPACK failure: SVD did not converge")


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


_QUBIT_STATE = HermitianMatrix(np.eye(4) / 4)


@pytest.mark.parametrize("call, message", [
    (lambda: sdp.build_state_compat(_QUBIT_STATE, _QUBIT_STATE),
     "states must live on X (x) Y1 and X (x) Y2"),
    (lambda: sdp.build_jordan_compat(identity_channel(2), identity_channel(3)),
     "input dimensions differ: 2 vs 3"),
    (lambda: sdp.build_povm_compat(Povm((np.eye(2),)), Povm((np.eye(3),))),
     "POVMs must act on the same space"),
    (lambda: decide(identity_channel(2), identity_channel(2), mode="bogus"), "unknown decision mode 'bogus'"),
    (lambda: farkas_check(sdp.build_compat(identity_channel(2), identity_channel(2), ppt=True),
                          (np.eye(4), np.eye(4))),
     "a program with blocks other than X needs one dual per block"),
    (lambda: sdp.solve_dykstra(sdp.build_compat(identity_channel(2), identity_channel(2), ppt=True)),
     "the round trip supports one PSD block, the variable itself"),
], ids=["builders-state_factors", "builders-jordan_inputs", "builders-povm_spaces", "decide-mode",
        "problem-farkas_duals", "projection-blocks"])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
