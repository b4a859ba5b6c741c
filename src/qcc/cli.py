"""Command-line surface: compatibility checks, region sweeps, certificate handling.

Exit codes for decisions: 0 compatible/feasible, 1 incompatible, 2
inconclusive; 64 for usage errors, unparseable input files and
unwritable output paths, 65 for dimension mismatches, 66 for problems
above the solver's size cap.
Sweeps write deterministic CSV (row-major grid, then a boundary section
with the first feasible step per column).  All configuration is via
flags; nothing reads the environment.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import sdp, verify
from .channels import (
    Channel,
    channel_from_json,
    in_xi_domain,
    partial_depolarizing_channel,
    validate,
    xi_channel,
)
from .jordan import jordan_channel, verify_gen_jordan_operator
from .sdp.decide import EXIT_CODES, decide
from .tolerances import DOMAIN_SLACK, OPERATOR_TOL
from .witness import (WitnessReport, certificate_from_json, certificate_to_json, verify_compatibilizer,
                      verify_jordan_witness, verify_witness)

EXIT_PARSE = 64
EXIT_DIMENSION = 65
EXIT_SIZE_CAP = 66


def _load_channel(path: str) -> Channel:
    try:
        with open(path) as f:
            data = json.load(f)
        return channel_from_json(data)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot parse channel file {path!r}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _cannot_write(path: str, exc: OSError) -> int:
    print(f"error: cannot write {path!r}: {exc.strerror or exc}", file=sys.stderr)
    return EXIT_PARSE


def _verdict_char(status: str) -> str:
    return "10?"[EXIT_CODES[status]]


def _verify_certificate(mode: str, cert, a: Channel, b: Channel) -> WitnessReport:
    """Check a parsed certificate of the given mode against the pair."""
    if mode in ("plain", "ppt"):
        return verify_witness(cert, a, b)
    if mode == "jordan":
        return verify_jordan_witness(cert, a, b)
    if mode == "jordan-operator":
        return verify_gen_jordan_operator(cert, a, b)
    return verify_compatibilizer(cert.array, a, b, ppt=mode == "ppt-compat")


def _value_text(dec) -> str:
    """A decision's value named for what its solve makes it: the optimum
    of a converged solve, or the bound of its one certificate."""
    out = dec.outcome
    if out.primal is not None and out.dual is not None:
        return f"optimum {dec.value:.3e}"
    bound = {"Feasible": ", a lower bound on the optimum", "Infeasible": ", an upper bound on the optimum"}
    return f"value {dec.value:.3e}{bound.get(out.status, '')}"


def cmd_check(args) -> int:
    a = _load_channel(args.channel_a)
    b = _load_channel(args.channel_b)
    dec = decide(a, b, args.mode.replace("-", "_"), optimum=args.optimum)
    print(f"verdict: {dec.verdict} ({_value_text(dec)})")
    if dec.note:
        print(f"note: {dec.note}")
    if args.cert:
        payload = {"verdict": dec.verdict.lower(), "mode": args.mode, "value": dec.value}
        if dec.verdict != "Inconclusive":
            # a Jordan verdict's operator before its product image; the check
            # reads the certificate back from what is written
            cert = next(c for c in (dec.witness, dec.gen_jordan_op, dec.compatibilizer) if c is not None)
            payload.update(certificate_to_json(cert))
            report = _verify_certificate(payload["mode"], certificate_from_json(payload), a, b)
            if not report.valid:
                print("error: certificate failed re-verification; not writing", file=sys.stderr)
                return 2
            if dec.witness is not None:
                payload["margin"] = report.margin
        try:
            with open(args.cert, "w") as f:
                json.dump(payload, f, indent=1)
        except OSError as exc:
            return _cannot_write(args.cert, exc)
        print(f"certificate written to {args.cert}")
    return dec.exit_code


def cmd_self_compat(args) -> int:
    if args.k < 2:
        print("error: k must be at least 2", file=sys.stderr)
        return EXIT_PARSE
    out = sdp.solve(sdp.build_k_extension(_load_channel(args.channel), args.k))
    detail = f"\nnote: {out.note}" if out.status == "Inconclusive" else f" (optimum {out.value:.3e})"
    print(f"k={args.k} self-compatibility: {out.status}{detail}")
    return EXIT_CODES[out.status]


# --- sweep workers (module level so process pools can pickle them) ---------


def _point_xi_self_k(task):
    # the sweep's tasks name "projection", which settles a sign; "ipm" converges
    p, q, k, solver = task
    if not in_xi_domain(p, q):
        return "x"
    return _verdict_char(sdp.solve(sdp.build_k_extension(xi_channel(p, q), k),
                                   optimum=solver == "ipm").status)


def _jordan_std_char(f: Channel, g: Channel) -> str:
    """'1' when the standard Jordan product of the pair is completely positive."""
    low = np.linalg.eigvalsh(jordan_channel(f.rep, g.rep).choi.array).min()
    return "1" if low >= -OPERATOR_TOL else "0"


def _point_xi_jordan_vs_self(task):
    p, q = task
    if not in_xi_domain(p, q):
        return ("x", "x", "x")
    xi = xi_channel(p, q)
    mp = "1" if validate(xi.rep).eb_2x2 else "0"
    return (_verdict_char(decide(xi, xi).verdict), _jordan_std_char(xi, xi), mp)


def _point_depol_pair(task):
    q0, q1 = task
    f = partial_depolarizing_channel(q0, 2)
    g = partial_depolarizing_channel(q1, 2)
    hull = "1" if (2 * q0 + q1 >= 1 - DOMAIN_SLACK and q0 + 2 * q1 >= 1 - DOMAIN_SLACK) else "0"
    return (_verdict_char(decide(f, g).verdict), _jordan_std_char(f, g), hull)


def _run_grid(worker, tasks, jobs):
    # the pool starts all its workers at once, so never more than can run
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, tasks, chunksize=8))
    return [worker(t) for t in tasks]


def _fmt(v: float) -> str:
    return f"{v:.10g}"


def _first_flip(col_rows, feasible_index):
    """Smallest q (second coordinate) in a column whose verdict is '1'."""
    for row in col_rows:
        if row[feasible_index] == "1":
            return row[1]
    return ""


# family -> (grid-point worker, point columns, boundary columns).  The
# worker is a module attribute looked up when the sweep runs, so a
# replaced attribute takes effect.  Point columns are the two coordinates
# and the worker's verdicts; each boundary column after the first holds
# the first feasible step of one verdict column.
_SWEEP_FAMILIES = {
    "xi_self_k": ("_point_xi_self_k", ["p", "q", "verdict"], ["boundary_p", "boundary_q"]),
    "xi_jordan_vs_self": ("_point_xi_jordan_vs_self", ["p", "q", "self", "jordan_std", "mp"],
                          ["boundary_p", "q_self", "q_jordan_std", "q_mp"]),
    "depol_pair": ("_point_depol_pair",
                   ["q0", "q1", "verdict_compat", "verdict_jordan_std", "in_hull"],
                   ["boundary_q0", "boundary_q1"]),
}


def cmd_sweep(args) -> int:
    n = args.grid
    if n < 2:
        print("error: grid must be at least 2", file=sys.stderr)
        return EXIT_PARSE
    if args.jobs < 1:
        print("error: jobs must be at least 1", file=sys.stderr)
        return EXIT_PARSE
    worker, header, boundary_header = _SWEEP_FAMILIES[args.family]
    params = ()
    extra = []
    if args.family == "xi_self_k":
        k = 2 if args.k is None else args.k
        if k < 2:
            print("error: k must be at least 2", file=sys.stderr)
            return EXIT_PARSE
        params = (k, "projection")
        header = header + ["k"]
        extra = [str(k)]
    elif args.k is not None:
        print("error: --k applies only to xi_self_k", file=sys.stderr)
        return EXIT_PARSE
    axis = [i / (n - 1) for i in range(n)]
    tasks = [(a, b) + params for a in axis for b in axis]
    try:  # before the grid, so an unwritable path costs no solves; "a" truncates nothing
        open(args.out, "a").close()
    except OSError as exc:
        return _cannot_write(args.out, exc)
    verdicts = _run_grid(globals()[worker], tasks, args.jobs)
    rows = []
    for task, v in zip(tasks, verdicts):
        cols = [v] if isinstance(v, str) else list(v)
        rows.append([_fmt(task[0]), _fmt(task[1])] + cols + extra)
    boundaries = []
    for i, a in enumerate(axis):
        col = rows[i * n : (i + 1) * n]
        boundaries.append([_fmt(a)] + [_first_flip(col, j)
                                       for j in range(2, 1 + len(boundary_header))])

    with open(args.out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)
        writer.writerow([])
        writer.writerow(boundary_header)
        writer.writerows(boundaries)
    print(f"wrote {len(rows)} grid rows to {args.out}")
    inconclusive = sum(1 for r in rows if "?" in r)
    if inconclusive:
        print(f"warning: {inconclusive} grid points were inconclusive", file=sys.stderr)
    return 0


def cmd_witness_verify(args) -> int:
    try:
        with open(args.cert) as f:
            data = json.load(f)
        w = certificate_from_json(data)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        print(f"error: cannot parse certificate {args.cert!r}: {reason}", file=sys.stderr)
        return EXIT_PARSE
    a = _load_channel(args.channel_a)
    b = _load_channel(args.channel_b)
    report = _verify_certificate(data["mode"], w, a, b)
    print(f"valid: {report.valid}  margin: {report.margin:.12g}  "
          f"min_eig: {report.min_eig:.3e}  residual: {report.constraint_residual:.3e}")
    return 0 if report.valid else 1


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_PARSE: argparse's own 2 is the Inconclusive code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qcc", description="Decide compatibility of quantum channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide compatibility of a channel pair")
    p_check.add_argument("channel_a")
    p_check.add_argument("channel_b")
    p_check.add_argument("--mode", default="compat",
                         choices=["compat", "jordan", "ppt-compat"])
    p_check.add_argument("--cert", help="write the certificate JSON here")
    p_check.add_argument("--optimum", action="store_true",
                         help="converge each solve and print the optimum")
    p_check.set_defaults(func=cmd_check)

    p_self = sub.add_parser("self-compat", help="k-fold self-compatibility")
    p_self.add_argument("channel")
    p_self.add_argument("--k", type=int, default=2)
    p_self.set_defaults(func=cmd_self_compat)

    p_sweep = sub.add_parser("sweep", help="region sweep emitting CSV curve data")
    p_sweep.add_argument("family", choices=list(_SWEEP_FAMILIES))
    p_sweep.add_argument("--grid", type=int, default=21)
    p_sweep.add_argument("--k", type=int)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_wit = sub.add_parser("witness", help="certificate operations")
    wit_sub = p_wit.add_subparsers(dest="witness_command", required=True)
    p_wv = wit_sub.add_parser("verify", help="re-verify a certificate file")
    p_wv.add_argument("cert")
    p_wv.add_argument("channel_a")
    p_wv.add_argument("channel_b")
    p_wv.set_defaults(func=cmd_witness_verify)

    p_vp = sub.add_parser("verify-paper",
                          help="re-run the built-in reference examples")
    p_vp.set_defaults(func=lambda args: verify.main())
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # usage errors, --help, file-level errors in handlers
        return int(exc.code or 0)
    except ValueError as exc:  # dimension mismatches, and sdp.SizeCapError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_CAP if isinstance(exc, sdp.SizeCapError) else EXIT_DIMENSION


if __name__ == "__main__":
    sys.exit(main())
