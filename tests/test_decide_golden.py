"""Golden decisions: fixed ``decide()`` cases against stored verdicts.

``tests/data/decide_golden.json`` holds the verdict, note and optimum of
35 fixed cases (random qubit and qutrit pairs and the reference pair in
each mode they are checked in).  A solver change that keeps the
decisions keeps this file; one that moves an optimum by more than
``VALUE_TOL`` or changes a verdict or note fails here.  Regenerate the
file only on purpose, with

    PYTHONPATH=src python tests/test_decide_golden.py
"""

import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from qcc import reference
from qcc.rand import random_channel, random_invertible_channel
from qcc.sdp.decide import decide

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
    return decide(f, g, mode)


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("family, pair, mode", _cases(), ids=lambda v: str(v))
def test_decision_matches_golden(family, pair, mode):
    want = _golden()[_label(family, pair, mode)]
    dec = _decide_case(family, pair, mode)
    assert dec.verdict == want["verdict"]
    assert dec.note == want["note"]
    assert abs(dec.value - want["value"]) <= VALUE_TOL


def test_qutrit_jordan_counts_cholesky_fallbacks():
    # this solve's Schur matrix needs jitter near the optimum, so the
    # count reaches the outcome; test_sdp.py::TestCholPd checks the flag
    # itself, and this bound goes once the Schur jitter is no longer needed
    dec = _decide_case("qutrit3", 0, "jordan")
    assert dec.outcome.residuals["chol_fallbacks"] >= 1


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
