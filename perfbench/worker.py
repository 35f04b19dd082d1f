"""One fresh benchmark process: set a workload up, then run it.

    python3 perfbench/worker.py --mode {setup,timed,trace} --workload W \
        --seed N --seconds S --out result.json --scratch DIR

Started by ``run.py`` from the root of a checkout, with ``src`` holding the
qmdp package.  Set-up time runs from the first line of this file, before
numpy and qmdp are imported.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _blas_record(np) -> dict:
    """BLAS name, version and the thread count it actually runs with."""
    import ctypes
    import glob

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs_dir = os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = int(fn())
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _env_record(np) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_record(np),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def _counts(outcomes) -> dict:
    return {
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.broken),
        "sandwich_ok": sum(1 for o in outcomes if o.sandwich_ok),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path.cwd() / "src"))

    import numpy as np

    import hostspeed
    import workloads

    if Path(workloads.cli.__file__).parent != Path.cwd() / "src" / "qmdp":
        raise SystemExit(f"qmdp was imported from {workloads.cli.__file__}, not from src/")

    wl = workloads.WORKLOADS[args.workload]
    mdps = workloads.build_instances(wl, args.seed)
    warm = [workloads.checked_solve(mdps[s.instance], s)
            for s in workloads.warmup_plan(wl, args.seed)]
    setup_raw = time.perf_counter() - _START
    # set-up is scaled like a solve, by the kernel timed twice right after it
    setup_scale = hostspeed.scales([hostspeed.measure(), hostspeed.measure()])[0]
    result = {"setup_s": setup_raw * setup_scale, "setup_s_raw": setup_raw,
              "warmup": _counts(warm)}

    if args.mode == "timed":
        rounds = max(wl.min_rounds, wl.rounds(args.seconds))
        batch = workloads.run_rounds(wl, mdps, args.seed, rounds)
        result.update(
            _counts(batch.outcomes),
            wall_s=batch.wall,
            round_rates=batch.scaled_round_rates(),
            solve_scales=batch.solve_scales,
            rounds=rounds,
            solve_ms=[o.seconds * 1e3 * f for o, f in zip(batch.outcomes, batch.solve_scales)],
            solve_ms_raw=[o.seconds * 1e3 for o in batch.outcomes],
            ledger_quantum=sum(o.quantum for o in batch.outcomes),
            ledger_classical=sum(o.classical for o in batch.outcomes),
        )
    elif args.mode == "trace":
        import layers
        from tracer import Tracer

        # the untraced and the traced pass each do a third of a timed run
        rounds = wl.rounds(args.seconds / 3.0)
        untraced = workloads.run_rounds(wl, mdps, args.seed, rounds, digest=True)
        with Tracer() as tracer:
            layers.install(tracer)
            traced_mdps = workloads.build_instances(wl, args.seed)
            first = len(tracer.spans)
            traced = workloads.run_rounds(wl, traced_mdps, args.seed, rounds, digest=True)
        per_layer = layers.metrics(tracer, first, traced.wall,
                                   traced.scaled_wall / untraced.scaled_wall - 1.0)
        spans_path = Path(args.scratch).parent / f"{args.workload}-seed{args.seed}.spans.json.gz"
        tracer.write(spans_path, workload=args.workload, seed=args.seed, rounds=rounds,
                     pass_first_span=first, traced_wall_s=traced.wall,
                     untraced_wall_s=untraced.wall)
        result.update(
            _counts(untraced.outcomes + traced.outcomes),
            rounds=rounds,
            trace_matches_untraced=[o.digest for o in untraced.outcomes]
            == [o.digest for o in traced.outcomes],
            per_layer=per_layer,
            spans_file=str(spans_path),
            spans=len(tracer.spans),
        )

    if args.mode != "setup":
        result["cli_deterministic"] = workloads.cli_determinism(
            wl, args.seed, Path(args.scratch))
        result["env"] = _env_record(np)
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
