"""Service CLI: ``python -m repro serve`` and client subcommands.

Usage::

    python -m repro serve --state-dir .repro-service [--host H] [--port P]
        [--jobs N] [--max-queued-cells N] [--cache-dir DIR]
    python -m repro submit --workloads kmeans+,ssca2 --systems \
        CGL,LockillerTM [--threads 2,8] [--seeds 1,2] [--scale 0.1]
        [--multiseed] [--tenant NAME] [--wait] [--server HOST:PORT |
        --state-dir DIR]
    python -m repro status  JOB  [--server ... | --state-dir ...]
    python -m repro results JOB  [--lite] [--fingerprints]
    python -m repro stream  JOB  [--no-follow]
    python -m repro cancel  JOB

``submit`` prints the job id (and with ``--wait`` streams progress
until the job finishes).  ``results --fingerprints`` prints one
``index label fingerprint`` line per cell — the exact vocabulary of the
determinism pin in the test suite and the CI service-smoke job.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.common.errors import ConfigError
from repro.service.client import ServiceClient, ServiceError, discover
from repro.service.server import ServiceConfig, run_service

SERVICE_COMMANDS = (
    "serve", "submit", "status", "results", "stream", "cancel",
)


def _add_endpoint_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--server", default=None, metavar="HOST:PORT",
        help="service endpoint (default: discover via --state-dir)",
    )
    p.add_argument(
        "--state-dir", default=".repro-service",
        help="service state directory (server.json discovery)",
    )


def _client(args: argparse.Namespace) -> ServiceClient:
    if args.server:
        host, _, port = args.server.rpartition(":")
        if not host or not port.isdigit():
            raise ConfigError(
                f"invalid --server {args.server!r}: expected HOST:PORT"
            )
        return ServiceClient(host, int(port))
    return discover(args.state_dir)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="sweep-service commands",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve_p = sub.add_parser(
        "serve", help="run the always-on sweep service"
    )
    serve_p.add_argument("--state-dir", default=".repro-service")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port", type=int, default=0,
        help="0 picks a free port (written to <state-dir>/server.json)",
    )
    serve_p.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (0=all CPUs; default $REPRO_JOBS/serial)",
    )
    serve_p.add_argument(
        "--max-queued-cells", type=int,
        default=ServiceConfig.max_queued_cells, metavar="N",
        help="most cells queued over all jobs; a submit past it gets "
             "HTTP 429 (default %(default)s)",
    )
    serve_p.add_argument(
        "--cache-dir", default=None,
        help="run-cache root (default <state-dir>/runcache)",
    )

    submit_p = sub.add_parser("submit", help="submit a campaign")
    _add_endpoint_args(submit_p)
    submit_p.add_argument("--workloads", required=True,
                          help="comma-separated workload names")
    submit_p.add_argument("--systems", required=True,
                          help="comma-separated Table-II systems")
    submit_p.add_argument("--threads", default="8")
    submit_p.add_argument("--seeds", default="42")
    submit_p.add_argument("--scale", type=float, default=0.25)
    submit_p.add_argument(
        "--params-tags", default="typical",
        help="comma-separated machine configs (typical,small,large)",
    )
    submit_p.add_argument(
        "--multiseed", action="store_true",
        help="submit as a multiseed campaign (one config, many seeds)",
    )
    submit_p.add_argument(
        "--tenant", default=None,
        help="free-text label kept on the job",
    )
    submit_p.add_argument(
        "--wait", action="store_true",
        help="stream events until the job finishes",
    )

    for name, extra in (
        ("status", ()),
        ("results", ("--lite", "--fingerprints")),
        ("stream", ("--no-follow",)),
        ("cancel", ()),
    ):
        p = sub.add_parser(name, help=f"{name} one job")
        p.add_argument("job_id")
        _add_endpoint_args(p)
        for flag in extra:
            p.add_argument(flag, action="store_true")
    return parser


def _campaign_from_args(args: argparse.Namespace) -> dict:
    return {
        "kind": "multiseed" if args.multiseed else "sweep",
        "workloads": [w for w in args.workloads.split(",") if w],
        "systems": [s for s in args.systems.split(",") if s],
        "threads": [int(x) for x in str(args.threads).split(",") if x],
        "seeds": [int(x) for x in str(args.seeds).split(",") if x],
        "scale": args.scale,
        "params_tags": [t for t in args.params_tags.split(",") if t],
    }


def _serve(args: argparse.Namespace) -> int:
    return run_service(ServiceConfig(
        state_dir=args.state_dir,
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        max_queued_cells=args.max_queued_cells,
        cache_dir=args.cache_dir,
    ))


def _submit(args: argparse.Namespace) -> int:
    client = _client(args)
    job = client.submit(_campaign_from_args(args), tenant=args.tenant)
    print(job["job_id"])
    if not args.wait:
        return 0
    for event in client.stream(job["job_id"]):
        print(json.dumps(event, sort_keys=True), file=sys.stderr)
    final = client.status(job["job_id"])
    return 0 if final["state"] == "done" else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "serve":
            return _serve(args)
        if args.command == "submit":
            return _submit(args)
        client = _client(args)
        if args.command == "status":
            print(json.dumps(client.status(args.job_id), indent=2,
                             sort_keys=True))
        elif args.command == "results":
            doc = client.results(args.job_id, lite=args.lite
                                 or args.fingerprints)
            if args.fingerprints:
                for cell in doc["cells"]:
                    print(f"{cell['index']} {cell['label']} "
                          f"{cell.get('fingerprint', '-')}")
            else:
                print(json.dumps(doc, indent=2, sort_keys=True))
        elif args.command == "stream":
            for event in client.stream(args.job_id,
                                       follow=not args.no_follow):
                print(json.dumps(event, sort_keys=True))
        elif args.command == "cancel":
            print(json.dumps(client.cancel(args.job_id), indent=2,
                             sort_keys=True))
        return 0
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 2 if exc.is_backpressure else 1
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
