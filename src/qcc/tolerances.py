"""The acceptance tolerances: every bound that decides whether a verdict,
a certificate or an input is accepted, each defined once.

Each entry names the checks that read it and the reason for its value.
The interior point's iteration controls (``sdp.ipm``), the size caps
and the internals of the 2 x 2 measure-and-prepare decomposition are
not acceptance tolerances and stay beside their code.
This module imports nothing from ``qcc``, so every module can read it.
"""

# --- verdicts and certificates ----------------------------------------------

# The sign band of the optimum t and decide()'s certificate tolerance, in
# one: a Feasible t >= -band gives X = W + tI with lambda_min(X) >= -band,
# which the certificate check must accept.  It bounds no residual: a solve
# that misses ipm.TOL is Inconclusive.  Read by sdp.solve (the verdict and
# its band note), by sdp.projection.solve_dykstra (how far below 0 its
# refutation's pairing must lie) and as primal-check bounds by
# sdp.problem.certify (constraints and PSD of every Feasible solve's point),
# witness.verify_compatibilizer (the same, of a compatibilizer) and
# jordan.verify_gen_jordan_operator and decide's jordan mode (the product
# image's PSD).
DECISION_TOL = 1e-7

# Least eigenvalue of a certificate's PSD part: every dual of a Farkas
# certificate (sdp.problem.farkas_check: verify_witness's adjoint sum,
# verify_jordan_witness's rho, every solve's dual in sdp.problem.certify)
# and every block of a projection point (whether
# sdp.projection.solve_dykstra's round trip ends at a point).  Tighter than
# DECISION_TOL on purpose: a witness should be decisively valid, not
# borderline.
PSD_TOL = 1e-9

# How far below 0 a Farkas certificate's pairing must lie
# (sdp.problem.farkas_check), after the most its duals' least eigenvalue
# and its residual can move it: a pairing at roundoff size refutes nothing.
PAIRING_TOL = 1e-9

# Frobenius norm of a Farkas certificate's equality residual
# (sdp.problem.farkas_check), nonzero where a block is not X: a Jordan
# witness's pull-back of rho less Tr*(W1) + Tr*(W2).  The read-out splits
# the pull-back of the solver's dual, so the residual is that dual's own.
# Kept apart from GEN_JORDAN_TOL: the two bound different norms of
# different residuals, a whole-matrix norm of a solver's dual against one
# entry of a projected read-out.
FARKAS_RESIDUAL_TOL = 1e-8

# Largest entry of a Jordan operator A's two middle marginals less J(id)
# (jordan.GenJordanOperator, the constraint bound of verify_gen_jordan_operator
# and of decide's check of the operator it reads out).  The read-out projects A onto that set, leaving
# deviations near 1e-14, also through inverse maps of condition 1e7.
GEN_JORDAN_TOL = 1e-8

# --- inputs ------------------------------------------------------------------

# Complete positivity and trace preservation of a Choi matrix: least
# eigenvalue >= -CHANNEL_TOL, and every entry of the input marginal
# within CHANNEL_TOL of I (channels.validate, read by Channel and by
# analytic.qubit_self_compatible; validate's unital and 2 x 2 PPT flags;
# the preconditions of channels.measure_prepare_decomposition), and the
# PSD precondition of linalg.pinv_sqrt, relative to the largest
# eigenvalue.  Loose enough for channels and states made by products,
# compositions, mixtures and marginals, tight against a real violation.
CHANNEL_TOL = 1e-8

# Operators given in closed form, which exact data meets to roundoff, in
# the largest entry or the least eigenvalue: POVM effects PSD and summing
# to I (channels.Povm), a unitary's U U^dag = I (unitary_channel), a
# density matrix's unit trace and PSD (channels.require_density, for
# constant_channel and MeasurePrepare's preparations), a traceless anchor
# (jordan.jordan_matrix), the Hermiticity of a JSON matrix payload
# (channels._matrix_from_json), and whether a standard Jordan product is
# CP in the sweeps (cli._jordan_std_char).
OPERATOR_TOL = 1e-10

# Identities that valid states, projector families and constraint data
# meet exactly: a StatePair's unit traces, PSD and marginals equal to
# sigma, and a joint state's overlap marginal (qcc.marginal); a
# projector family's P^2 = P and P_a P_b = 0 (channels.check_projectors,
# for pinching_channel and marginal's projector completion); the
# consistency of a program's right-hand sides (sdp.problem._eliminate)
# and linalg.support_projection_absorbs, these two relative to
# max(1, largest entry).
MARGINAL_TOL = 1e-9

# The slack of the parameter domains' linear boundaries: p + q <= 1 of
# the xi family (channels.in_xi_domain, read by xi_channel,
# analytic.XiParams and the cli sweep workers), its singular boundary
# (analytic.xi_inverse) and the depolarizing pair's hull (cli): the
# float sum at a grid point on a boundary may miss it by an ulp.
DOMAIN_SLACK = 1e-12

# --- numerics ----------------------------------------------------------------

# Hermiticity, relative to max(1, max |M|), of every linalg.HermitianMatrix
# (within it the matrix is symmetrized, beyond it refused) and of every
# constraint right-hand side (sdp.problem.SdpProblem), whose coordinates
# read only the upper triangle.
HERMITICITY_TOL = 1e-12

# Relative cut of every rank decision.  Eigenvalues: support projectors
# and pseudo-inverses (linalg); an absolute cut breaks on scaled inputs.
# Singular values: the null-space form's block images (sdp.problem).
# Eigenvalues of the Gram matrix K K^T, squared singular values of the
# constraint matrix K (sdp.problem._Structure): the null ones come out
# at ~1e-15 and the smallest nonzero one is 3 against 6 at qutrit compat,
# so this cut gives the rank of an SVD of K at a 1e-10 cut on every
# builder, where (1e-10)^2 would sit below the Gram matrix's rounding.
RANK_CUTOFF = 1e-10

# Largest condition number of a map that channels.invert_map inverts;
# beyond it the inverse is reported singular.
INVERT_MAX_COND = 1e12

# Least determinant of a validated qubit Choi matrix that
# analytic.qubit_self_compatible clamps to 0; a lower one is refused.
DET_CLAMP = -1e-12
