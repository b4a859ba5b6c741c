"""Golden sweeps: grid-6 ``qcc sweep`` CSVs against stored files.

``tests/data/sweep_golden`` holds the CSV of each sweep below at
``--grid 6 --jobs 1``.  An ``xi_self_k`` sweep solves each point with
``sdp.solve(problem, optimum=False)`` (one alternating-projection round
trip, then the interior point stopped at its first certified iterate), and
each of its files also equals the sweep of converged interior-point
solves byte for byte.  A solver change that keeps
every grid verdict keeps these files byte for byte.  The ``depol_pair``
sweep is compared in ``test_cli.py::TestSweep::test_depol_pair_small_grid``,
which runs it for its analytic oracle anyway.  Regenerate them
only on purpose, with

    PYTHONPATH=src python tests/test_sweep_golden.py
"""

from pathlib import Path

import pytest

from qcc.cli import main

GOLDEN_DIR = Path(__file__).parent / "data" / "sweep_golden"

# golden file name -> sweep arguments
SWEEPS = {
    "xi_self_k_k2.csv": ["xi_self_k", "--k", "2"],
    "xi_self_k_k3.csv": ["xi_self_k", "--k", "3"],
    "xi_self_k_k4.csv": ["xi_self_k", "--k", "4"],
    "xi_self_k_k5.csv": ["xi_self_k", "--k", "5"],
    "xi_jordan_vs_self.csv": ["xi_jordan_vs_self"],
    "depol_pair.csv": ["depol_pair"],
}


def _run_sweep(name: str, out: Path) -> None:
    assert main(["sweep", *SWEEPS[name], "--grid", "6", "--jobs", "1", "--out", str(out)]) == 0


@pytest.mark.parametrize("name", sorted(set(SWEEPS) - {"depol_pair.csv"}))
def test_sweep_matches_golden(name, tmp_path):
    out = tmp_path / name
    _run_sweep(name, out)
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


def test_golden_dir_holds_every_sweep():
    assert sorted(p.name for p in GOLDEN_DIR.glob("*.csv")) == sorted(SWEEPS)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in SWEEPS:
        _run_sweep(name, GOLDEN_DIR / name)
    print(f"wrote {len(SWEEPS)} sweeps to {GOLDEN_DIR}")
