"""Benchmark of the qmdp solvers: closed-loop batches of checked solves.

Run from the root of a checkout (``src/qmdp`` must be there):

    python3 perfbench/run.py --workload hard-sweep --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py): ``hard-sweep``, ``dense-mock``, ``statevector``.

--trace 0 runs the workload untraced in a fresh worker process, for a fixed
number of rounds that takes about ``--seconds`` on a 2-core x86 machine,
and sets up two more fresh workers, so that set-up time is a median of
three.  --trace 1 runs a third as many rounds untraced, then the same
rounds with every layer boundary wrapped, and reports per-layer metrics;
the spans go to a sidecar file.

Times in the end-to-end metrics are scaled to a reference host speed,
measured by a fixed kernel timed between rounds (see hostspeed.py); the
raw times are in the report and the run record.

A human-readable report goes to stderr, a run record (environment, code
identity, metrics) and the spans to ``perfbench/out/``; the last line on stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import catalog

SETUP_RUNS = 3
DEADLINE_S = 170.0  # every run must end within 180 s
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def tail_percentile(samples):
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it,
    as (percentile, value), by nearest rank; (100, max) for too few samples."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 100, xs[-1]
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(1, math.ceil(pct / 100 * n))
    return pct, xs[rank - 1]


def pinned_env() -> dict:
    """The worker environment, with BLAS threads capped at nproc."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(min(max(wanted, 1), nproc))
    return env


def code_identity(root: Path) -> dict:
    commit = "unavailable: not a git repository"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qmdp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_qmdp_sha256": digest.hexdigest()}


class Runner:
    def __init__(self, args, scratch: Path, deadline: float):
        self.args = args
        self.scratch = scratch
        self.deadline = deadline
        self.env = pinned_env()
        self.worker = Path(__file__).with_name("worker.py")
        self.count = 0

    def __call__(self, mode: str) -> dict:
        self.count += 1
        out = self.scratch / f"result-{self.count}.json"
        cmd = [sys.executable, str(self.worker), "--mode", mode,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds), "--out", str(out),
               "--scratch", str(self.scratch)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RuntimeError("no time left for another worker")
        # subprocess.run kills the worker and waits for it on timeout
        proc = subprocess.run(cmd, stdout=sys.stderr, env=self.env, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
        return json.loads(out.read_text())


def end_to_end(timed: dict, setups: list, raw_setups: list) -> tuple[dict, dict]:
    attempted, failed = timed["attempted"], timed["failed"]
    verified = attempted - failed
    solve_ms = timed["solve_ms"]
    pct, tail = tail_percentile(solve_ms)
    # Each round holds one solve per slot (solver and parameter point).  With
    # equal counts per slot the pooled median falls on the edge between two
    # slots' clusters and jumps between them; the median of the slot medians
    # does not.
    per_round = len(solve_ms) // timed["rounds"]

    def slot_p50(xs):
        return [statistics.median(xs[j::per_round]) for j in range(per_round)]

    scaled_p50, raw_p50 = slot_p50(solve_ms), slot_p50(timed["solve_ms_raw"])
    values = {
        "solves_per_s": statistics.median(timed["round_rates"]),
        "solve_ms_p50": statistics.median(scaled_p50),
        "solve_ms_tail": tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": timed["peak_rss_mib"],
        "sandwich_ok_frac": timed["sandwich_ok"] / attempted,
        "verified_frac": verified / attempted,
        "quantum_queries": timed["ledger_quantum"],
        "ledger_total_queries": timed["ledger_quantum"] + timed["ledger_classical"],
    }
    notes = {
        "solve_ms_tail": f"p{pct} of {len(solve_ms)} solves",
        "solve_ms_p50_per_slot": [round(x, 3) for x in scaled_p50],
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setups),
        "host_scale": "median {:.4f}, range {:.4f}-{:.4f} over solves".format(
            statistics.median(timed["solve_scales"]), min(timed["solve_scales"]),
            max(timed["solve_scales"])),
        "raw_solve_ms_p50": statistics.median(raw_p50),
        "raw_setup_s": "median of " + ", ".join(f"{s:.4f}" for s in raw_setups),
        "failed_frac": failed / attempted,
        "classical_samples": timed["ledger_classical"],
        "rounds": timed["rounds"],
        "wall_s": timed["wall_s"],
    }
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=catalog.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "qmdp" / "__init__.py").is_file():
        print(f"error: {root} holds no src/qmdp package; run from the root of a "
              "qmdp checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=out_dir, prefix="run-"))
    try:
        run = Runner(args, scratch, deadline)
        if args.trace:
            main_result = run("trace")
            metrics = main_result["per_layer"]
            notes = {"rounds": main_result["rounds"], "spans": main_result["spans"],
                     "spans_file": main_result["spans_file"],
                     "trace_matches_untraced": main_result["trace_matches_untraced"]}
            units = catalog.PER_LAYER
        else:
            main_result = run("timed")
            setup_runs = [main_result] + [run("setup") for _ in range(SETUP_RUNS - 1)]
            metrics, notes = end_to_end(main_result, [r["setup_s"] for r in setup_runs],
                                        [r["setup_s_raw"] for r in setup_runs])
            units = catalog.END_TO_END
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = main_result["attempted"] + main_result["warmup"]["attempted"]
    failed = main_result["failed"] + main_result["warmup"]["failed"]
    attempted += 1  # the two-run determinism check through `qmdp solve`
    failed += not main_result["cli_deterministic"]
    sandwich_rate = main_result["sandwich_ok"] / main_result["attempted"]
    correct = (failed == 0 and sandwich_rate >= 1.0 - catalog.DELTA
               and main_result.get("trace_matches_untraced", True))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **code_identity(root), "env": main_result["env"],
              "correct": correct, "attempted": attempted, "failed": failed,
              "cli_deterministic": main_result["cli_deterministic"],
              "metrics": metrics, "notes": notes}
    record_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.record.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace} correct={correct} "
          f"attempted={attempted} failed={failed}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:42s} {value:>16.6g} {units[name]}", file=sys.stderr)
    for name, value in notes.items():
        print(f"  ({name}: {value})", file=sys.stderr)
    print(f"  (run record: {record_path})", file=sys.stderr)

    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
