import csv
import json
from pathlib import Path

import numpy as np
import pytest

from qcc import cli, reference, sdp
from qcc.analytic import xi_self_threshold
from qcc.channels import channel_to_json, identity_channel, partial_depolarizing_channel
from qcc.cli import main
from qcc.rand import random_channel


@pytest.fixture
def ref_files(tmp_path):
    a, b = reference.channel_pair()
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    pa.write_text(json.dumps(channel_to_json(a)))
    pb.write_text(json.dumps(channel_to_json(b)))
    return str(pa), str(pb)


@pytest.fixture
def identity_file(tmp_path):
    p = tmp_path / "id.json"
    p.write_text(json.dumps(channel_to_json(identity_channel(2))))
    return str(p)


def _negate_matrices(node):
    """A copy of a certificate's JSON with every matrix (rows of [re, im]) negated."""
    if isinstance(node, dict):
        return {k: _negate_matrices(v) for k, v in node.items()}
    if isinstance(node, list) and node and isinstance(node[0], list):
        return [[[-re, -im] for re, im in row] for row in node]
    return node


class TestCheck:
    def test_compatible_exit_zero(self, ref_files):
        a, b = ref_files
        assert main(["check", a, b, "--mode", "compat"]) == 0

    def test_ppt_exit_one_with_witness(self, ref_files, tmp_path):
        a, b = ref_files
        cert = str(tmp_path / "cert.json")
        assert main(["check", a, b, "--mode", "ppt-compat", "--cert", cert]) == 1
        data = json.loads(open(cert).read())
        assert data["mode"] == "ppt-compat" or data["mode"] == "ppt"
        assert main(["witness", "verify", cert, a, b]) == 0

    def test_identity_pair_witnessed(self, identity_file, tmp_path):
        cert = str(tmp_path / "cert.json")
        assert main(["check", identity_file, identity_file, "--cert", cert]) == 1
        assert main(["witness", "verify", cert, identity_file, identity_file]) == 0

    def test_jordan_mode(self, identity_file, tmp_path):
        cert = str(tmp_path / "cert.json")
        assert main(["check", identity_file, identity_file, "--mode", "jordan",
                     "--cert", cert]) == 1
        assert main(["witness", "verify", cert, identity_file, identity_file]) == 0

    def test_compatible_certificate_roundtrips(self, ref_files, tmp_path):
        a, b = ref_files
        cert = str(tmp_path / "cert.json")
        assert main(["check", a, b, "--cert", cert]) == 0
        data = json.loads(open(cert).read())
        assert data["verdict"] == "compatible"
        from qcc.channels import channel_from_json

        comp = channel_from_json(data["compatibilizer"])
        assert comp.rep.output_factors == (2, 2)
        assert main(["witness", "verify", cert, a, b]) == 0
        # one diagonal Choi entry changed: still Hermitian, marginals off
        data["compatibilizer"]["choi"][0][0][0] += 1e-3
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(data))
        assert main(["witness", "verify", str(doctored), a, b]) == 1

    @pytest.mark.parametrize("mode", ["compat", "ppt-compat"])
    def test_compatible_certificate_verifies(self, tmp_path, mode):
        p = tmp_path / "o.json"
        p.write_text(json.dumps(channel_to_json(partial_depolarizing_channel(0.8, 2))))
        cert = str(tmp_path / "cert.json")
        assert main(["check", str(p), str(p), "--mode", mode, "--cert", cert]) == 0
        assert main(["witness", "verify", cert, str(p), str(p)]) == 0

    @pytest.mark.parametrize("mode", ["compat", "ppt-compat", "jordan"])
    @pytest.mark.parametrize("verdict", ["Compatible", "Incompatible"])
    def test_every_certificate_verifies(self, tmp_path, mode, verdict):
        if verdict == "Compatible":
            a = b = partial_depolarizing_channel(0.8, 2)
        else:
            a, b = reference.channel_pair() if mode == "ppt-compat" else (identity_channel(2),) * 2
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(channel_to_json(a)))
        pb.write_text(json.dumps(channel_to_json(b)))
        cert = tmp_path / "cert.json"
        code = {"Compatible": 0, "Incompatible": 1}[verdict]
        assert main(["check", str(pa), str(pb), "--mode", mode, "--cert", str(cert)]) == code
        assert main(["witness", "verify", str(cert), str(pa), str(pb)]) == 0
        data = json.loads(cert.read_text())
        negated = _negate_matrices(data)
        assert negated != data
        bad = tmp_path / "negated.json"
        bad.write_text(json.dumps(negated))
        assert main(["witness", "verify", str(bad), str(pa), str(pb)]) == 1

    @pytest.mark.parametrize("mode, key", [("compat", "shape1"), ("compat", "shape2"),
                                           ("ppt-compat", "shape1"), ("jordan", "rho_shape")])
    def test_certificate_missing_shape_key_exits_64(self, identity_file, tmp_path, capsys,
                                                    mode, key):
        cert = tmp_path / "cert.json"
        assert main(["check", identity_file, identity_file, "--mode", mode,
                     "--cert", str(cert)]) == 1
        data = json.loads(cert.read_text())
        del data[key]
        cert.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["witness", "verify", str(cert), identity_file, identity_file]) == 64
        assert f"missing key '{key}'" in capsys.readouterr().err

    def test_step_collapse_exit_2_without_certificate(self, identity_file, monkeypatch,
                                                      tmp_path, capsys):
        monkeypatch.setattr(sdp.ipm, "_steps_to_boundary", lambda lam, gs, gz: (0.0, 0.0))
        cert = tmp_path / "cert.json"
        assert main(["check", identity_file, identity_file, "--cert", str(cert)]) == 2
        assert "note: step collapse" in capsys.readouterr().out
        assert set(json.loads(cert.read_text())) == {"verdict", "mode", "value"}

    def test_certificate_failing_reverification_is_not_written(self, identity_file, monkeypatch,
                                                               tmp_path, capsys):
        # the witness is negated on its way into the payload, so the
        # check that reads it back refuses it
        to_json = cli.certificate_to_json
        monkeypatch.setattr(cli, "certificate_to_json", lambda c: _negate_matrices(to_json(c)))
        cert = tmp_path / "cert.json"
        assert main(["check", identity_file, identity_file, "--cert", str(cert)]) == 2
        assert "certificate failed re-verification; not writing" in capsys.readouterr().err
        assert not cert.exists()

    def test_parse_failure_exit_64(self, tmp_path, identity_file):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", str(bad), identity_file]) == 64

    def test_dimension_mismatch_exit_65(self, tmp_path, identity_file):
        other = tmp_path / "id3.json"
        other.write_text(json.dumps(channel_to_json(identity_channel(3))))
        assert main(["check", identity_file, str(other)]) == 65

    def test_size_cap_exit_66(self, tmp_path):
        # compat of two 7 -> 7 channels has side 343, above the interior-point cap
        p = tmp_path / "id7.json"
        p.write_text(json.dumps(channel_to_json(identity_channel(7))))
        assert main(["check", str(p), str(p)]) == 66

    def test_unwritable_certificate_path_exits_64(self, identity_file, tmp_path, capsys):
        # exit 1 would read as Incompatible, whatever the verdict
        cert = tmp_path / "missing" / "cert.json"
        assert main(["check", identity_file, identity_file, "--cert", str(cert)]) == 64
        captured = capsys.readouterr()
        assert "verdict: Incompatible" in captured.out
        assert f"error: cannot write {str(cert)!r}" in captured.err

    def test_unknown_flag_exits_64(self, ref_files, capsys):
        a, b = ref_files
        assert main(["check", a, b, "--bogus"]) == 64
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["check", "--help"]) == 0
        assert "--mode" in capsys.readouterr().out

    def test_iteration_cap_exit_2(self, identity_file, monkeypatch, capsys):
        monkeypatch.setattr(sdp.ipm, "MAX_ITER", 2)
        assert main(["check", identity_file, identity_file]) == 2
        assert "iteration cap exceeded" in capsys.readouterr().out


class TestSelfCompat:
    def test_dephasing_k4(self, tmp_path):
        from qcc.channels import dephasing_channel

        p = tmp_path / "deph.json"
        p.write_text(json.dumps(channel_to_json(dephasing_channel(2))))
        assert main(["self-compat", str(p), "--k", "4", "--solver", "projection"]) == 0

    def test_identity_k2(self, identity_file):
        assert main(["self-compat", identity_file, "--k", "2"]) == 1

    @pytest.mark.parametrize("k", ["0", "1"])
    def test_k_below_two_exits_64(self, identity_file, capsys, k):
        assert main(["self-compat", identity_file, "--k", k]) == 64
        assert "k must be at least 2" in capsys.readouterr().err

    def test_decision_band_is_not_an_option(self, identity_file, capsys):
        # a band of 0.5 would read the identity's optimum -1/8 as Feasible
        assert main(["self-compat", identity_file, "--k", "2", "--tol", "0.5"]) == 64
        assert "Feasible" not in capsys.readouterr().out

    def test_projection_not_feasible_exits_2(self, identity_file, capsys):
        # Dykstra finds no point of the identity's infeasible k = 4 extension
        assert main(["self-compat", identity_file, "--k", "4", "--solver", "projection"]) == 2
        assert "self-compatibility: Inconclusive" in capsys.readouterr().out

    @pytest.mark.parametrize("solver", ["ipm", "projection"])
    def test_size_cap_beyond_int64_exit_66(self, identity_file, capsys, solver):
        # in int64 a side of 2**64 is 0, below both caps
        assert main(["self-compat", identity_file, "--k", "63", "--solver", solver]) == 66
        assert str(2 ** 64) in capsys.readouterr().err

    def test_half_depolarizing_k2(self, tmp_path):
        p = tmp_path / "o.json"
        p.write_text(json.dumps(channel_to_json(partial_depolarizing_channel(0.5, 2))))
        assert main(["self-compat", str(p), "--k", "2"]) == 0

    def test_size_cap_exit_66(self, tmp_path):
        # a total variable side of 4 * 4**4 = 1024 is above the interior-point cap
        p = tmp_path / "c4.json"
        p.write_text(json.dumps(channel_to_json(random_channel(np.random.default_rng(0), 4, 4))))
        assert main(["self-compat", str(p), "--k", "4"]) == 66


def read_sections(path):
    with open(path) as f:
        raw = list(csv.reader(f))
    split = raw.index([])
    return raw[:split], raw[split + 1 :]


class TestSweep:
    def test_depol_pair_small_grid(self, tmp_path):
        out = str(tmp_path / "d.csv")
        assert main(["sweep", "depol_pair", "--grid", "6", "--jobs", "1", "--out", out]) == 0
        # the golden sweep of tests/test_sweep_golden.py, compared here
        golden = Path(__file__).parent / "data" / "sweep_golden" / "depol_pair.csv"
        assert Path(out).read_bytes() == golden.read_bytes()
        rows, boundary = read_sections(out)
        assert rows[0] == ["q0", "q1", "verdict_compat", "verdict_jordan_std", "in_hull"]
        assert len(rows) == 37  # header + 36 grid points
        # analytic oracle at every grid point (grid values avoid the curve)
        from qcc.analytic import depol_pair_compatible

        for q0s, q1s, cv, _jv, _hv in rows[1:]:
            q0, q1 = float(q0s), float(q1s)
            assert cv == ("1" if depol_pair_compatible(q0, q1) else "0")
        assert boundary[0] == ["boundary_q0", "boundary_q1"]

    def test_xi_self_k_boundary_matches_analytic(self, tmp_path):
        out = str(tmp_path / "xi.csv")
        assert main(["sweep", "xi_self_k", "--grid", "11", "--k", "2", "--out", out]) == 0
        rows, boundary = read_sections(out)
        step = 1.0 / 10
        for ps, qs in boundary[1:]:
            p = float(ps)
            assert qs != ""
            q_flip = float(qs)
            assert abs(q_flip - xi_self_threshold(p)) <= step + 1e-9

    def test_xi_jordan_vs_self_ordering(self, tmp_path):
        out = str(tmp_path / "x3.csv")
        assert main(["sweep", "xi_jordan_vs_self", "--grid", "9", "--out", out]) == 0
        _rows, boundary = read_sections(out)
        assert boundary[0] == ["boundary_p", "q_self", "q_jordan_std", "q_mp"]
        for row in boundary[1:]:
            qs = [float(v) for v in row[1:] if v != ""]
            if len(qs) == 3:
                assert qs[0] <= qs[1] <= qs[2]

    def test_deterministic_output(self, tmp_path):
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        main(["sweep", "depol_pair", "--grid", "5", "--out", out1])
        main(["sweep", "depol_pair", "--grid", "5", "--out", out2])
        assert open(out1).read() == open(out2).read()

    def test_jobs_flag_matches_serial(self, tmp_path):
        out1 = str(tmp_path / "s.csv")
        out2 = str(tmp_path / "p.csv")
        main(["sweep", "depol_pair", "--grid", "4", "--out", out1])
        main(["sweep", "depol_pair", "--grid", "4", "--out", out2, "--jobs", "2"])
        assert open(out1).read() == open(out2).read()

    @pytest.mark.parametrize("args, message", [
        (["--grid", "2", "--k", "0"], "k must be at least 2"),
        (["--grid", "2", "--k", "1"], "k must be at least 2"),
        (["--grid", "1"], "grid must be at least 2"),
        # jobs below 1 used to run serially without a word
        (["--grid", "2", "--jobs", "0"], "jobs must be at least 1"),
    ], ids=["0", "1", "grid1", "jobs0"])
    def test_xi_self_k_below_two_exits_64(self, tmp_path, capsys, args, message):
        out = tmp_path / "low.csv"
        assert main(["sweep", "xi_self_k", "--out", str(out)] + args) == 64
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs, cpus, grid, workers", [
        ("5000", 2, 3, [2]), ("5000", 64, 2, [4]), ("3", 64, 3, [3]), ("2", 1, 3, []),
    ], ids=["cpus", "points", "jobs", "serial"])
    def test_pool_size_is_capped(self, tmp_path, monkeypatch, jobs, cpus, grid, workers):
        # the pool forks all its workers up front; a recorder stands in
        # for it and runs the grid in this process
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        out, serial = tmp_path / "pool.csv", tmp_path / "serial.csv"
        assert main(["sweep", "depol_pair", "--grid", str(grid), "--jobs", jobs,
                     "--out", str(out)]) == 0
        assert started == workers
        assert main(["sweep", "depol_pair", "--grid", str(grid), "--out", str(serial)]) == 0
        assert out.read_bytes() == serial.read_bytes()

    def test_first_flip_of_a_column_without_feasible_point_is_empty(self):
        col = [["0.5", "0", "0", "?"], ["0.5", "0.5", "?", "1"], ["0.5", "1", "0", "1"]]
        assert cli._first_flip(col, 2) == ""
        assert cli._first_flip(col, 3) == "0.5"

    @pytest.mark.parametrize("family", ["xi_jordan_vs_self", "depol_pair"])
    @pytest.mark.parametrize("flag", [["--k", "3"], ["--solver", "projection"]])
    def test_xi_self_k_flags_on_other_families_exit_64(self, tmp_path, capsys, family, flag):
        out = tmp_path / "other.csv"
        assert main(["sweep", family, "--grid", "2", "--out", str(out)] + flag) == 64
        assert "apply only to xi_self_k" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_family_exits_64(self, tmp_path, capsys):
        out = tmp_path / "bogus.csv"
        assert main(["sweep", "bogus", "--grid", "2", "--out", str(out)]) == 64
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    def test_size_cap_beyond_int64_exit_66(self, tmp_path, capsys):
        # k >= 4 defaults to projection; in int64 a side of 2**64 is 0,
        # below its cap
        out = str(tmp_path / "cap.csv")
        assert main(["sweep", "xi_self_k", "--grid", "2", "--k", "63", "--out", out]) == 66
        assert str(2 ** 64) in capsys.readouterr().err

    def test_unwritable_out_path_exits_64_before_the_grid(self, tmp_path, monkeypatch, capsys):
        def no_grid(*args):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(cli, "_run_grid", no_grid)
        out = tmp_path / "missing" / "sweep.csv"
        assert main(["sweep", "depol_pair", "--grid", "2", "--out", str(out)]) == 64
        assert f"error: cannot write {str(out)!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_size_cap_exit_66(self, tmp_path, capsys, jobs):
        # k = 8 has a total variable side of 2 * 2**8 = 512, above the interior-point cap
        out = str(tmp_path / "cap.csv")
        argv = ["sweep", "xi_self_k", "--grid", "2", "--k", "8", "--solver", "ipm",
                "--jobs", jobs, "--out", out]
        assert main(argv) == 66
        assert "cap" in capsys.readouterr().err


def test_verify_paper_command(capsys):
    assert main(["verify-paper"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_paper_negative_control(monkeypatch, capsys):
    # corrupt the second reference channel (partial transpose on the input
    # factor) and check the suite actually notices
    from qcc import reference, verify
    from qcc.channels import Channel
    from qcc.linalg import ptranspose_array

    a, b = reference.channel_pair()
    corrupted = Channel.from_choi(ptranspose_array(b.choi.array, (2, 2), 0), 2)
    monkeypatch.setattr(reference, "channel_pair", lambda: (a, corrupted))
    assert verify.main() == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "marginals" in out.split("FAIL")[1]
