"""``python -m repro`` — top-level command dispatch.

Adds the performance tooling entry point::

    python -m repro profile <workload> [--system S] [--threads N]
        [--scale F] [--seed N] [--top N] [--sort cumulative|tottime]
        [--save out.json]
    python -m repro profile --compare before.json after.json

the sweep-service commands (:mod:`repro.service.cli`)::

    python -m repro serve   [--state-dir D] [--port P] [--jobs N] ...
    python -m repro submit  --workloads ... --systems ... [--wait]
    python -m repro status|results|stream|cancel JOB

and forwards every other command (``run``, ``sweep``, ``fig*``,
``metrics``, ``timeline``, ...) to :mod:`repro.harness.cli`, so the
harness CLI is reachable as plain ``python -m repro run ...`` too.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _profile_main(argv: List[str]) -> int:
    from repro.harness.profiling import (
        compare_reports,
        load_report,
        profile_run,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description="cProfile one run and attribute events per subsystem",
    )
    parser.add_argument(
        "workload",
        nargs="?",
        help="workload name (e.g. vacation-); omit with --compare",
    )
    parser.add_argument("--system", default="LockillerTM")
    parser.add_argument("--threads", "--cores", type=int, default=4)
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--top", type=int, default=20, help="rows in the pstats table"
    )
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=["cumulative", "tottime", "ncalls"],
    )
    parser.add_argument(
        "--save",
        metavar="PATH",
        help="also write the report as JSON (input for --compare)",
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("BEFORE", "AFTER"),
        help="diff two saved reports' attribution tables and exit",
    )
    args = parser.parse_args(argv)
    if args.compare:
        print(compare_reports(*(load_report(p) for p in args.compare)))
        return 0
    if args.workload is None:
        parser.error("workload is required unless --compare is given")
    report = profile_run(
        args.workload,
        system=args.system,
        threads=args.threads,
        scale=args.scale,
        seed=args.seed,
        top_n=args.top,
        sort=args.sort,
    )
    print(report.render())
    if args.save:
        report.save(args.save)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "profile":
        return _profile_main(argv[1:])
    if argv and argv[0] in (
        "serve", "submit", "status", "results", "stream", "cancel",
    ):
        from repro.service.cli import main as service_main

        return service_main(argv)
    from repro.harness.cli import main as cli_main

    return cli_main(argv if argv else None)


if __name__ == "__main__":
    raise SystemExit(main())
