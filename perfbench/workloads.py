"""The three seeded workloads and their correctness checks.

A workload is a pool of *groups* drawn from the seed.  A group is the
unit the timed loop runs whole, so every run sees the same mix of
instance kinds however long it lasts:

- ``qubit-decide``: one group is a mixed batch of qubit ``decide()``
  calls (depolarizing pairs and xi self-pairs against the closed-form
  oracles, random invertible pairs in all three modes, the shipped
  reference pair in ``ppt_compat``).
- ``qutrit-decide``: one group is one random invertible qutrit pair
  decided in ``compat``, ``jordan`` and ``ppt_compat``.
- ``xi-k-region``: one group is ``qcc sweep xi_self_k`` at k = 2, 3, 4
  on a fixed coarse grid, through ``qcc.cli.main`` with ``--jobs 1``.
  The CLI takes no random input, so the seed only orders the three
  sweeps inside each group; the grid stays fixed so the region checks
  and the per-point mix are the same on every seed.

An operation is one ``decide()`` call or one grid-point solve.  Checks
run after each group, outside the timed wall: they re-verify every
certificate without the solver and compare verdicts with the
``qcc.analytic`` oracles, the compat/jordan agreement, PPT inclusion and
the k-extension nesting rules.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import numpy as np

import qcc.cli as cli_mod
import qcc.sdp.decide as decide_mod
from qcc import reference, witness
from qcc.analytic import depol_pair_compatible, xi_mp_threshold, xi_self_threshold
from qcc.channels import Channel, partial_depolarizing_channel, xi_channel
from qcc.linalg import ptrace_array, ptranspose_array
from qcc.rand import random_invertible_channel

CERT_TOL = 1e-7  # certificate re-check tolerance, the one decide() promises
BAND = 0.01  # oracle checks stay this far from an analytic boundary, as the acceptance tests do
# distinct groups per decide workload; a run cycles through them
POOL_GROUPS = 4
SWEEP_POOL = 8  # seeded sweep orders per xi-k-region pool
SWEEP_GRID = 6  # grid step 0.2: 21 in-domain points per k
SWEEP_KS = (2, 3, 4)
# the warm-up operation uses a fixed instance, so set-up time does not
# depend on how hard the seed's first instance happens to be
WARM_UP_SEED = 0
DECIDE_LAYERS = ("sdp.builders", "sdp.problem.compile_ipm", "sdp.ipm.solve_ipm", "sdp.solve",
                 "sdp.decide", "witness.verify")
SWEEP_LAYERS = ("sdp.builders", "sdp.problem.compile_ipm", "sdp.ipm.solve_ipm",
                "sdp.projection.solve_dykstra", "sdp.solve", "cli.sweep")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    inconclusive: int = 0
    failures: list = field(default_factory=list)

    def fail(self, what: str, why: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(f"{what}: {why}")

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.inconclusive += other.inconclusive
        self.failures.extend(other.failures[: max(0, 20 - len(self.failures))])


# ---------------------------------------------------------------------------
# decide() workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecideOp:
    label: str
    f: Channel
    g: Channel
    mode: str
    expect: Optional[str] = None  # oracle verdict, when one exists
    pair: Optional[int] = None  # ops on one random pair are cross-checked


def _depol_near_boundary(q0: float, q1: float) -> bool:
    vals = [a + np.sqrt(a * b) + b - 1.0
            for a in (max(q0 - BAND, 0.0), min(q0 + BAND, 1.0))
            for b in (max(q1 - BAND, 0.0), min(q1 + BAND, 1.0))]
    return min(vals) <= 0.0 <= max(vals)


def _qubit_group(rng: np.random.Generator, first_pair: int) -> list[DecideOp]:
    ops = []
    while len(ops) < 10:
        q0, q1 = rng.uniform(0.0, 1.0, size=2)
        if _depol_near_boundary(q0, q1):
            continue
        expect = "Compatible" if depol_pair_compatible(q0, q1) else "Incompatible"
        ops.append(DecideOp(f"depol({q0:.4f},{q1:.4f})", partial_depolarizing_channel(q0, 2),
                            partial_depolarizing_channel(q1, 2), "compat", expect))
    while len(ops) < 18:
        p = rng.uniform(0.0, 1.0)
        q = rng.uniform(0.0, 1.0 - p)
        if abs(q - xi_self_threshold(p)) <= BAND:
            continue
        xi = xi_channel(p, q)
        expect = "Compatible" if q >= xi_self_threshold(p) else "Incompatible"
        ops.append(DecideOp(f"xi_self({p:.4f},{q:.4f})", xi, xi, "compat", expect))
    for pair in range(first_pair, first_pair + 6):
        f = random_invertible_channel(rng, 2)
        g = random_invertible_channel(rng, 2)
        for mode in ("compat", "jordan", "ppt_compat"):
            ops.append(DecideOp(f"random2[{pair}]", f, g, mode, pair=pair))
    a, b = reference.channel_pair()
    ops.append(DecideOp("reference", a, b, "ppt_compat", "Incompatible"))
    return ops


def _qutrit_group(rng: np.random.Generator, pair: int) -> list[DecideOp]:
    f = random_invertible_channel(rng, 3)
    g = random_invertible_channel(rng, 3)
    return [DecideOp(f"random3[{pair}]", f, g, mode, pair=pair)
            for mode in ("compat", "jordan", "ppt_compat")]


def check_decision(op: DecideOp, dec) -> Optional[str]:
    """Why the decision is wrong, or None.  Uses no solver."""
    if isinstance(dec, Exception):
        return f"raised {dec!r}"
    if dec.verdict == "Compatible":
        if dec.compatibilizer is None or dec.witness is not None:
            return "Compatible without exactly one compatibilizer"
        if op.mode == "jordan" and dec.gen_jordan_op is None:
            return "Jordan verdict without the product operator"
        x = dec.compatibilizer.array
        factors = (op.f.d_in, op.f.d_out, op.g.d_out)
        dev = max(np.abs(ptrace_array(x, factors, [2]) - op.f.choi.array).max(),
                  np.abs(ptrace_array(x, factors, [1]) - op.g.choi.array).max())
        min_eig = np.linalg.eigvalsh(x).min()
        if op.mode == "ppt_compat":
            min_eig = min(min_eig, np.linalg.eigvalsh(ptranspose_array(x, factors, 0)).min())
        if dev > CERT_TOL or min_eig < -CERT_TOL:
            return f"compatibilizer fails: marginal deviation {dev:.2e}, min eigenvalue {min_eig:.2e}"
    elif dec.verdict == "Incompatible":
        w = dec.witness
        if op.mode == "jordan":
            if not isinstance(w, witness.JordanWitness):
                return "Jordan Incompatible without a Jordan witness"
            report = witness.verify_jordan_witness(w, op.f, op.g)
        else:
            wanted = "ppt" if op.mode == "ppt_compat" else "plain"
            if not isinstance(w, witness.Witness) or w.mode != wanted:
                return f"Incompatible without a {wanted} witness"
            report = witness.verify_witness(w, op.f, op.g)
        if not report.valid:
            return f"witness fails re-verification (margin {report.margin:.2e}, min eig {report.min_eig:.2e})"
    elif dec.verdict != "Inconclusive":
        return f"unknown verdict {dec.verdict!r}"
    if op.expect and dec.verdict not in ("Inconclusive", op.expect):
        return f"verdict {dec.verdict}, oracle says {op.expect}"
    return None


def _check_pairs(group: list[DecideOp], decisions: list, tally: Tally) -> None:
    """compat and jordan agree on invertible pairs; PPT-compatible implies compatible."""
    verdicts = {}
    for op, dec in zip(group, decisions):
        if op.pair is not None and not isinstance(dec, Exception):
            verdicts[(op.pair, op.mode)] = (op.label, dec.verdict)
    for (pair, mode), (label, v) in verdicts.items():
        if mode != "compat":
            continue
        vj = verdicts.get((pair, "jordan"), (None, "Inconclusive"))[1]
        vp = verdicts.get((pair, "ppt_compat"), (None, "Inconclusive"))[1]
        if "Inconclusive" not in (v, vj) and v != vj:
            tally.fail(label, f"compat says {v}, jordan says {vj}")
        if vp == "Compatible" and v == "Incompatible":
            tally.fail(label, "PPT-compatible but incompatible")


def _choi_digest(h, ch: Channel) -> None:
    h.update(np.ascontiguousarray(ch.choi.array).tobytes())


class DecideWorkload:
    # layers a traced run must see calls in; one that reads 0 is no longer
    # intercepted by the tracer
    traced_layers = DECIDE_LAYERS

    def __init__(self, name: str, seed: int):
        rng = np.random.default_rng(seed)
        if name == "qubit-decide":
            self.d = 2
            self.groups = [_qubit_group(rng, 6 * i) for i in range(POOL_GROUPS)]
        else:
            self.d = 3
            self.groups = [_qutrit_group(rng, i) for i in range(POOL_GROUPS)]

    def digest(self) -> str:
        h = hashlib.sha256()
        for group in self.groups:
            for op in group:
                h.update(f"{op.label}|{op.mode}|{op.expect}".encode())
                _choi_digest(h, op.f)
                _choi_digest(h, op.g)
        return h.hexdigest()

    def warm_up(self) -> None:
        rng = np.random.default_rng(WARM_UP_SEED)
        f = random_invertible_channel(rng, self.d)
        g = random_invertible_channel(rng, self.d)
        decide_mod.decide(f, g, "compat")

    def run_group(self, index: int, tracer) -> tuple[list, list]:
        """Run pool group ``index``; return (per-operation seconds, decisions)."""
        latencies, decisions = [], []
        for op in self.groups[index]:
            if tracer is not None:
                tracer.op_id += 1
            t0 = perf_counter()
            try:
                dec = decide_mod.decide(op.f, op.g, op.mode)
            except Exception as exc:  # counted as a failed operation, run continues
                dec = exc
            latencies.append(perf_counter() - t0)
            decisions.append(dec)
        return latencies, decisions

    def check_group(self, index: int, decisions: list) -> Tally:
        group = self.groups[index]
        tally = Tally(attempted=len(group))
        for op, dec in zip(group, decisions):
            why = check_decision(op, dec)
            if why:
                tally.fail(f"{op.label} {op.mode}", why)
            elif dec.verdict == "Inconclusive":
                tally.inconclusive += 1
        _check_pairs(group, decisions, tally)
        return tally


# ---------------------------------------------------------------------------
# xi-k-region: the CLI sweep
# ---------------------------------------------------------------------------


def _axis(n: int) -> list[float]:
    return [i / (n - 1) for i in range(n)]


def _in_domain(p: float, q: float) -> bool:
    return p + q <= 1.0 + 1e-12


def _read_sweep(path) -> dict:
    """Grid section of a sweep CSV: (p, q) -> verdict character."""
    out = {}
    with open(path) as f:
        next(f)
        for line in f:
            if not line.strip():
                break
            p, q, v, _k = line.strip().split(",")
            out[(round(float(p), 9), round(float(q), 9))] = v
    return out


class SweepWorkload:
    """Closed loop over CLI sweeps; a point solve is timed by wrapping the
    CLI's per-point worker, the only place a single solve is visible."""

    traced_layers = SWEEP_LAYERS

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng(seed)
        self.groups = [tuple(int(k) for k in rng.permutation(SWEEP_KS)) for _ in range(SWEEP_POOL)]
        self.workdir = workdir
        self.points = [(round(p, 9), round(q, 9)) for p in _axis(SWEEP_GRID)
                       for q in _axis(SWEEP_GRID) if _in_domain(p, q)]
        self._sink: list = []
        self._tracer = None
        self._point = cli_mod._point_xi_self_k
        cli_mod._point_xi_self_k = self._clocked_point

    def _clocked_point(self, task):
        if self._tracer is not None:
            self._tracer.op_id += 1
        t0 = perf_counter()
        v = self._point(task)
        if v != "x":
            self._sink.append(perf_counter() - t0)
        return v

    def digest(self) -> str:
        return hashlib.sha256(repr((SWEEP_GRID, self.groups)).encode()).hexdigest()

    def warm_up(self) -> None:
        self._point((0.4, 0.4, 3, "ipm"))

    def run_group(self, index: int, tracer) -> tuple[list, list]:
        self._sink, self._tracer = [], tracer
        outputs = []
        for k in self.groups[index]:
            path = self.workdir / f"xi_self_k{k}.csv"
            argv = ["sweep", "xi_self_k", "--grid", str(SWEEP_GRID), "--k", str(k),
                    "--out", str(path), "--jobs", "1"]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli_mod.main(argv)
                except Exception as exc:  # counted as failed points, run continues
                    code = exc
            outputs.append((k, code, path))
        self._tracer = None
        return self._sink, outputs

    def check_group(self, index: int, outputs: list) -> Tally:
        tally = Tally()
        regions = {}
        for k, code, path in outputs:
            tally.attempted += len(self.points)
            if code != 0:
                tally.fail(f"sweep k={k}", f"exit {code!r}", len(self.points))
                continue
            regions[k] = _read_sweep(path)
            tally.inconclusive += sum(regions[k][pt] == "?" for pt in self.points)

        flagged = set()  # count each failed point solve once

        def bad(k, pt, why):
            if (k, pt) not in flagged:
                flagged.add((k, pt))
                tally.fail(f"k={k} (p, q)={pt}", why)

        step = 1.0 / (SWEEP_GRID - 1)
        if 2 in regions:
            r2 = regions[2]
            for p in _axis(SWEEP_GRID):
                col = [pt for pt in self.points if pt[0] == round(p, 9)]
                thr = xi_self_threshold(p)
                for pt in col:
                    v = r2[pt]
                    if abs(pt[1] - thr) > BAND and v != "?" and (v == "1") != (pt[1] >= thr):
                        bad(2, pt, f"verdict {v}, closed-form threshold {thr:.4f}")
                flips = [pt for pt in col if r2[pt] == "1"]
                if not flips or abs(flips[0][1] - thr) > step + 1e-9:
                    bad(2, flips[0] if flips else col[-1],
                        f"boundary more than one step from the threshold {thr:.4f}")
        for pt in self.points:
            for lo, hi in ((4, 3), (3, 2)):
                if lo in regions and hi in regions and regions[lo][pt] == "1" and regions[hi][pt] != "1":
                    bad(lo, pt, f"in R{lo} but not in R{hi}")
            if pt[1] >= xi_mp_threshold(pt[0]) - 1e-12:
                for k, region in regions.items():
                    if region[pt] != "1":
                        bad(k, pt, "measure-and-prepare point outside the region")
        return tally


def make(name: str, seed: int, workdir):
    if name in ("qubit-decide", "qutrit-decide"):
        return DecideWorkload(name, seed)
    if name == "xi-k-region":
        return SweepWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
