"""Run one workload of the seeded benchmark and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload dse --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones from a separate traced run. The last
line of standard output is the result object; the line before it is a
report with the revision, machine stamps and run details. The exit
code is 2 when the program under test is not in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

#: Workload name → module implementing ``setup(seed)`` and
#: ``run(seed, seconds, trace)``.
WORKLOADS = {
    "dse": "perfbench.dse_workload",
    "edit-session": "perfbench.edit_workload",
    "serve-mixed": "perfbench.serve_workload",
}

#: Workloads whose set-up is timed in fresh processes (the serve
#: workload times its own server starts).
IN_PROCESS = ("dse", "edit-session")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _terminate(signum: int, frame: object) -> None:
    # Unwind normally so every started server is stopped and waited for.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not common.program_present():
        print(f"error: the program under test is missing "
              f"({common.SRC / 'repro'}); run from a full checkout",
              file=sys.stderr)
        return 2
    common.use_program_sources()
    workload = importlib.import_module(WORKLOADS[args.workload])
    if args.setup_probe:
        started = time.perf_counter()
        workload.setup(args.seed)
        print(time.perf_counter() - started)
        return 0

    signal.signal(signal.SIGTERM, _terminate)
    spec = common.load_spec()
    trace = bool(args.trace)
    host_ms = [common.host_loop_ms()]
    setup_s = (common.probe_setup(args.workload, args.seed)
               if not trace and args.workload in IN_PROCESS else None)
    started = time.perf_counter()
    outcome = workload.run(args.seed, args.seconds, trace)
    if setup_s is not None:
        outcome.put("setup_s", setup_s, "s")
    host_ms.append(common.host_loop_ms())
    outcome.report.update(common.stamp(), host_loop_ms=host_ms)
    outcome.report.update(workload=args.workload, seed=args.seed,
                          seconds=args.seconds, trace=args.trace,
                          run_s=round(time.perf_counter() - started, 3))
    common.emit(outcome, spec["per_layer" if trace else "end_to_end"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
