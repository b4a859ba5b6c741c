"""Golden decisions: fixed ``decide()`` cases against stored verdicts.

``tests/data/decide_golden.json`` holds the verdict, note and optimum of
35 fixed cases (random qubit and qutrit pairs and the reference pair in
each mode they are checked in), decided with ``optimum=True``.  A solver
change that keeps the decisions keeps this file; one that moves an
optimum by more than ``VALUE_TOL`` or changes a verdict or note fails
here.  ``decide``'s default, which stops each solve at its first
certificate, must give the same verdicts and notes, with certificates
that pass the public checks.  Regenerate the file only on purpose, with

    PYTHONPATH=src python tests/test_decide_golden.py

On invertible pairs Jordan mode solves the compat program; the Jordan
cases here and the random invertible qubit pairs below are also checked
against the Jordan program itself, which ``decide`` no longer runs there.
"""

import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from qcc import reference, sdp
from qcc.channels import depolarizing_channel, identity_channel, partial_depolarizing_channel
from qcc.jordan import verify_gen_jordan_operator
from qcc.linalg import ptrace_array
from qcc.rand import random_channel, random_invertible_channel
from qcc.sdp import decide as decide_mod
from qcc.sdp.decide import decide
from qcc.witness import verify_compatibilizer, verify_jordan_witness, verify_witness

GOLDEN = Path(__file__).parent / "data" / "decide_golden.json"
VALUE_TOL = 1e-8
ALL_MODES = ("compat", "jordan", "ppt_compat")


@lru_cache(maxsize=None)
def _pairs(family: str) -> tuple:
    """The channel pairs of one case family, drawn in a fixed order."""
    if family == "inv201":
        rng = np.random.default_rng(201)
        return tuple((random_invertible_channel(rng, 2), random_invertible_channel(rng, 2))
                     for _ in range(6))
    if family == "inv8":
        rng = np.random.default_rng(8)
        return tuple((random_invertible_channel(rng, 2), random_invertible_channel(rng, 2))
                     for _ in range(20))
    if family == "singular":
        return ((identity_channel(2), depolarizing_channel(2)),)
    if family == "rand7":
        rng = np.random.default_rng(7)
        return tuple((random_channel(rng, 2), random_channel(rng, 2)) for _ in range(4))
    if family == "reference":
        return (reference.channel_pair(),)
    if family.startswith("qutrit"):
        rng = np.random.default_rng(int(family[len("qutrit"):]))
        return ((random_invertible_channel(rng, 3), random_invertible_channel(rng, 3)),)
    raise KeyError(family)


def _cases() -> list[tuple[str, int, str]]:
    """(family, pair index, mode) of every golden case."""
    families = [("inv201", 6, ALL_MODES), ("rand7", 4, ("compat", "ppt_compat")),
                ("reference", 1, ALL_MODES), ("qutrit1", 1, ALL_MODES),
                ("qutrit3", 1, ALL_MODES)]
    return [(family, i, mode) for family, npairs, modes in families
            for i in range(npairs) for mode in modes]


def _label(family: str, pair: int, mode: str) -> str:
    return f"{family}-{pair}-{mode}"


@lru_cache(maxsize=None)
def _decide_case(family: str, pair: int, mode: str):
    f, g = _pairs(family)[pair]
    return decide(f, g, mode, optimum=True)


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("family, pair, mode", _cases(), ids=lambda v: str(v))
def test_decision_matches_golden(family, pair, mode):
    want = _golden()[_label(family, pair, mode)]
    dec = _decide_case(family, pair, mode)
    assert dec.verdict == want["verdict"]
    assert dec.note == want["note"]
    assert abs(dec.value - want["value"]) <= VALUE_TOL


@pytest.mark.parametrize("family, pair, mode", _cases(), ids=lambda v: str(v))
def test_default_decision_matches_golden_verdict(family, pair, mode):
    want = _golden()[_label(family, pair, mode)]
    f, g = _pairs(family)[pair]
    dec = decide(f, g, mode)
    assert (dec.verdict, dec.note) == (want["verdict"], want["note"])
    if dec.verdict == "Compatible" and mode == "jordan":
        assert verify_gen_jordan_operator(dec.gen_jordan_op.matrix, f, g).valid
    elif dec.verdict == "Compatible":
        assert verify_compatibilizer(dec.compatibilizer.array, f, g, ppt=mode == "ppt_compat").valid
    elif dec.verdict == "Incompatible":
        check = verify_jordan_witness if mode == "jordan" else verify_witness
        assert check(dec.witness, f, g).valid


@lru_cache(maxsize=None)
def _jordan_program(family: str, pair: int):
    f, g = _pairs(family)[pair]
    return sdp.solve(sdp.build_jordan_compat(f, g))


def test_qutrit_jordan_program_needs_no_cholesky_escalation():
    # near its optimum the Jordan program's Schur matrix is singular to
    # working precision on this pair; its fixed first jitter rung factors
    # every one of them (test_sdp.py::TestCholPd checks that a forced
    # escalation is counted)
    assert _jordan_program("qutrit3", 0).residuals["chol_fallbacks"] == 0


@pytest.mark.parametrize("family, pair",
                         [("inv8", i) for i in range(20)]
                         + [("qutrit1", 0), ("qutrit3", 0), ("singular", 0)],
                         ids=lambda v: str(v))
def test_jordan_decide_matches_jordan_program(family, pair, monkeypatch):
    compiled = []

    def recording_solve(problem, **kwargs):
        compiled.append(problem.name)
        return sdp.solve(problem, **kwargs)

    monkeypatch.setattr(decide_mod, "solve", recording_solve)
    f, g = _pairs(family)[pair]
    dec = decide(f, g, "jordan", optimum=True)
    want = _jordan_program(family, pair)
    assert dec.outcome.status == want.status
    if family == "singular":
        # a singular map keeps the Jordan program, and with it the same iterates
        assert compiled == ["jordan_compat"]
        assert dec.value == want.value
    else:
        assert compiled == ["compat"]
        assert abs(dec.value - want.value) <= VALUE_TOL


def test_jordan_read_out_is_projected_onto_identity_marginals():
    # cond(f) ~ 1e7 multiplies the solver residual in A = (id x f^-1 x g^-1)(X)
    f = partial_depolarizing_channel(1 - 1e-7, 3)
    g = random_invertible_channel(np.random.default_rng(4), 3)
    dec = decide(f, g, "jordan")
    assert dec.verdict == "Compatible"
    a = dec.gen_jordan_op.matrix.array
    jid = identity_channel(3).choi.array
    for traced in (1, 2):
        assert np.abs(ptrace_array(a, (3, 3, 3), [traced]) - jid).max() <= 1e-12


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(_label(*case) for case in _cases())


if __name__ == "__main__":
    golden = {}
    for case in _cases():
        dec = _decide_case(*case)
        golden[_label(*case)] = {"verdict": dec.verdict, "note": dec.note, "value": dec.value}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}")
