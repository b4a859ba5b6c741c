"""One workload process: set up, warm up, run the timed loop, check, report.

Started by ``run.py`` with the BLAS thread count pinned in its
environment.  It prints protocol lines starting with ``@@perfbench ``:
``ready`` once imports, seeded instance generation and one warm-up
operation are done (the parent times set-up up to that line), then one
``result`` line.  With ``--trace 1`` the loop alternates each group
between an untraced and a traced pass over the same inputs, so the
traced run also measures its own overhead.  With ``--trace 1``,
``--seconds 0`` runs exactly one group.

    python3 perfbench/worker.py --workload qubit-decide --seed 1 --seconds 0 --trace 1
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MARK = "@@perfbench "
# an untraced run keeps going past --seconds until it has this many
# operations, so that a qutrit-decide run always covers three pairs
# instead of two or three depending on how fast the machine is
MIN_SAMPLES = 9


def emit(event: str, payload: dict) -> None:
    print(MARK + json.dumps({"event": event, **payload}), flush=True)


def blas_info() -> dict:
    """numpy's BLAS vendor, version and live thread count."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).parent.with_name("numpy.libs")
    for lib in sorted(libdir.glob("*openblas*")) if libdir.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads, "numpy": np.__version__,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "pin": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


class Section:
    """Timed measurements of one pass kind (untraced or traced)."""

    def __init__(self):
        self.latencies: list = []
        self.wall = 0.0
        self.groups = 0

    def summary(self) -> dict:
        ops = len(self.latencies)
        return {"ops": ops, "wall_s": self.wall, "groups": self.groups,
                "ops_per_s": ops / self.wall if self.wall else 0.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--digest-only", action="store_true")
    ap.add_argument("--spans", help="write the traced spans here")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracer import Tracer

    (HERE / "results").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=HERE / "results"))
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        if args.digest_only:
            emit("result", {"digest": wl.digest()})
            return 0
        wl.warm_up()
        emit("ready", {})
        if args.setup_only:
            return 0

        untraced, traced = Section(), Section()
        tracer = Tracer() if args.trace else None
        measured = traced if args.trace else untraced
        target = args.seconds / 2 if args.trace else args.seconds
        tally = workloads.Tally()
        g = 0
        while True:
            group = g % len(wl.groups)
            passes = (False,) if not args.trace else ((False, True) if g % 2 == 0 else (True, False))
            for use_tracer in passes:
                sec = traced if use_tracer else untraced
                if use_tracer:
                    tracer.install()
                t0 = perf_counter()
                latencies, payload = wl.run_group(group, tracer if use_tracer else None)
                sec.wall += perf_counter() - t0
                if use_tracer:
                    tracer.uninstall()
                sec.latencies.extend(latencies)
                sec.groups += 1
                tally.add(wl.check_group(group, payload))
            g += 1
            if measured.wall >= target and (args.trace or len(untraced.latencies) >= MIN_SAMPLES):
                break

        result = {
            "digest": wl.digest(),
            "attempted": tally.attempted,
            "failed": tally.failed,
            "inconclusive": tally.inconclusive,
            "failures": tally.failures,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "env": blas_info(),
            "untraced": untraced.summary(),
            "latencies_ms": [1000.0 * t for t in untraced.latencies],
        }
        if tracer is not None:
            layers = tracer.layer_report()
            covered = sum(v for k, v in layers.items() if k.endswith(".self_s"))
            u, t = untraced.summary(), traced.summary()
            layers.update({
                "trace.ops": t["ops"],
                "trace.coverage": covered / traced.wall if traced.wall else 0.0,
                "trace.ops_per_s": t["ops_per_s"],
                "trace.untraced_ops_per_s": u["ops_per_s"],
                "trace.overhead": (u["ops_per_s"] / t["ops_per_s"] - 1.0) if t["ops_per_s"] else 0.0,
            })
            result["layers"] = layers
            result["missing_layers"] = [name for name in wl.traced_layers
                                        if layers[f"{name}.calls"] == 0]
            result["traced"] = dict(t, spans=len(tracer.spans))
            if args.spans:
                tracer.dump(args.spans)
        emit("result", result)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
