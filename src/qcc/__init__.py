"""Compatibility of quantum channels via Choi matrices and small dense SDPs.

The pieces: ``linalg`` (tensor-space primitives), ``channels`` (the Choi
representation and named channel families), ``jordan`` (products of
channels and their generalization), ``marginal`` (state-problem
reductions), ``sdp`` (the embedded solver, problem builders and the
decider), ``witness`` (certificate construction and verification),
``analytic`` (closed-form qubit criteria), ``tolerances`` (every
acceptance tolerance, defined once) and ``cli``.
"""

from .channels import (
    Channel,
    LinearMapRep,
    MeasurePrepare,
    Povm,
    SingularMapError,
    channel_from_json,
    channel_to_json,
    measure_prepare_channel,
)
from .jordan import GenJordanOperator, a_jp, gen_jordan, jordan_channel, jordan_matrix
from .linalg import HermitianMatrix, TensorShape
from .sdp import build_compat, build_jordan_compat, build_k_extension, build_povm_compat, solve
from .sdp.decide import Decision, decide
from .witness import JordanWitness, Witness, no_broadcast_witness, verify_jordan_witness, verify_witness

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "Decision",
    "GenJordanOperator",
    "HermitianMatrix",
    "JordanWitness",
    "LinearMapRep",
    "MeasurePrepare",
    "Povm",
    "SingularMapError",
    "TensorShape",
    "Witness",
    "a_jp",
    "build_compat",
    "build_jordan_compat",
    "build_k_extension",
    "build_povm_compat",
    "channel_from_json",
    "channel_to_json",
    "decide",
    "gen_jordan",
    "jordan_channel",
    "jordan_matrix",
    "measure_prepare_channel",
    "no_broadcast_witness",
    "solve",
    "verify_jordan_witness",
    "verify_witness",
]
