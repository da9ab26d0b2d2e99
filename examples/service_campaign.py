#!/usr/bin/env python
"""Submit a campaign to the sweep service and watch it run.

Hosts the service in-process (``ServiceThread`` — the same server
``python -m repro serve`` runs), submits a small
CGL-vs-LockillerTM sweep, streams the live event feed, prints the
per-cell fingerprints, and then demonstrates the two headline
properties:

* resubmitting the campaign schedules **zero** cells (everything is
  served from the shared content-addressed store), and
* the service's results are **bit-identical** to a serial
  ``Sweep.run`` of the same campaign.

It exits non-zero if either property, or the event stream, does not
hold, or if the client needed more than one connection for all of its
requests, so it doubles as an end-to-end smoke check.

Run:  python examples/service_campaign.py
"""

import tempfile

from repro.harness.export import fingerprint
from repro.service import CampaignSpec, ServiceClient
from repro.service.server import ServiceConfig, ServiceThread

CAMPAIGN = {
    "kind": "sweep",
    "workloads": ["kmeans+", "ssca2"],
    "systems": ["CGL", "LockillerTM"],
    "threads": [2],
    "seeds": [1],
    "scale": 0.1,
}


def main() -> None:
    with tempfile.TemporaryDirectory() as state_dir:
        config = ServiceConfig(state_dir=state_dir, jobs=2)
        with ServiceThread(config) as handle:
            client = ServiceClient(handle.host, handle.port)
            print(f"service up on {handle.host}:{handle.port}")

            job = client.submit(CAMPAIGN, tenant="example")
            print(f"submitted {job['job_id']} "
                  f"({job['progress']['cells_total']} cells)\n")

            kinds = []
            for event in client.stream(job["job_id"]):
                kind = event["event"]
                kinds.append(kind)
                if kind == "cell_done":
                    print(f"  cell {event['index']:2d} done "
                          f"[{event['source']:8s}] {event['label']}")
                elif kind.startswith("job_"):
                    print(f"  {kind}")

            if kinds[0] != "submitted" or kinds[-1] != "job_done":
                raise SystemExit(f"unexpected event stream: {kinds}")

            cells = client.results(job["job_id"], lite=True)["cells"]
            print("\nper-cell fingerprints:")
            for cell in cells:
                print(f"  {cell['index']:2d} {cell['label']:40s} "
                      f"{cell['fingerprint']}")

            # Same campaign again: 100% dedup, nothing executes.
            job2 = client.submit(CAMPAIGN, tenant="someone-else")
            final = client.wait(job2["job_id"])
            progress = final["progress"]
            print(f"\nresubmit: scheduled={progress['cells_scheduled']}"
                  f" from_cache={progress['cells_from_cache']}")
            if (progress["cells_scheduled"]
                    or progress["cells_from_cache"] != len(cells)):
                raise SystemExit("resubmit was not served from the store")

            # And the numbers are exactly what a serial sweep produces.
            serial = CampaignSpec.from_dict(CAMPAIGN).to_sweep().run()
            serial_fps = [fingerprint(r.stats) for r in serial.records]
            service_fps = [c["fingerprint"] for c in cells]
            print(f"bit-identical to serial Sweep.run: "
                  f"{service_fps == serial_fps}")
            if service_fps != serial_fps:
                raise SystemExit("service results differ from Sweep.run")

            # Every request above went over the client's one connection.
            stats = client.stats()
            print(f"requests: {stats['requests_served']} over "
                  f"{stats['connections_accepted']} connection(s)")
            if stats["connections_accepted"] != 1:
                raise SystemExit("the client did not keep its connection")


if __name__ == "__main__":
    main()
