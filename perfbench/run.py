"""Layered, paper-shaped benchmark of the Chameleon serving simulator.

    python3 perfbench/run.py --workload paper-chameleon --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, untraced + traced

One workload run simulates a fixed number of sub-runs, each on its own
trace drawn from the seed, checks every sub-run with the correctness gate,
and prints the end-to-end metrics (``--trace 0``) or the per-layer metrics
of a traced sub-run (``--trace 1``).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Without ``--workload`` (or with ``--workload all``) every workload runs in
a fresh process, untraced and traced, and the tables are printed together.
See perfbench/README.md for the metric catalogue.
"""

from __future__ import annotations

import os

# One thread: the simulator is single-threaded and so is every measurement.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

try:
    import repro  # noqa: F401  (the program under test)
except ImportError as exc:
    print(f"perfbench: cannot import the simulator from {ROOT / 'src'}: "
          f"{exc}", file=sys.stderr)
    raise SystemExit(2)

from perfbench.measure import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    SimulationCrash,
    end_to_end,
    traced,
)
from perfbench.workloads import WORKLOADS  # noqa: E402

DEFAULT_SECONDS = 30


# ---------------------------------------------------------------------- #
# Command line
# ---------------------------------------------------------------------- #
def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    """One workload run; the last line printed is the JSON result."""
    workload = WORKLOADS[name]
    try:
        outcome = traced(workload, seed) if trace else \
            end_to_end(workload, seed, seconds)
    except SimulationCrash as crash:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": crash.arrivals,
                          "failed": crash.arrivals, "metrics": {}}))
        return 1
    correct = not outcome.violations
    for violation in outcome.violations[:20]:
        print(f"VIOLATION {name}: {violation}", file=sys.stderr)
    mode = "traced" if trace else "untraced"
    print(f"workload {name} seed {seed} ({mode}): "
          f"fingerprint {outcome.fingerprint}")
    for note in outcome.notes:
        print(f"  {note}")
    for metric, entry in outcome.metrics.items():
        print(f"  {metric:<40} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.unserved if correct else outcome.attempted,
        "metrics": outcome.metrics,
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, untraced then traced."""
    results: dict = {}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            status = status or proc.returncode
            if proc.returncode == 0 and lines:
                results[(name, trace)] = json.loads(lines[-1])
    for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
        print("\n" + ("end-to-end (untraced)" if trace == 0
                      else "per-layer (traced)"))
        print(f"{'metric':<40} {'unit':<12}" + "".join(
            f"{name:>18}" for name in WORKLOADS))
        for metric, unit in table:
            cells = "".join(
                f"{results[(name, trace)]['metrics'][metric]['value']:>18.6g}"
                if (name, trace) in results else f"{'-':>18}"
                for name in WORKLOADS)
            print(f"{metric:<40} {unit:<12}{cells}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
