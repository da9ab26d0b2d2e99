"""Regenerate ``pins.json``: every cell's fingerprint from a serial Sweep.run.

Run from the root of a checkout (takes about half a minute)::

    python3 perfbench/make_pins.py

Pins cover the default seed and one held-out seed; any other seed is
checked by end-of-run validation and round-to-round fingerprint identity.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro.harness.export import fingerprint  # noqa: E402
from repro.service.campaigns import CampaignSpec  # noqa: E402

import gridload  # noqa: E402
import serviceload  # noqa: E402

#: The default seed and the held-out seed.
PIN_SEEDS = (42, 7)


def serial(sweep) -> dict:
    results = sweep.run(jobs=1)
    return {r.point.label(): fingerprint(r.stats) for r in results.records}


def main() -> None:
    doc = {"seeds": {}}
    for seed in PIN_SEEDS:
        per = {}
        for name in gridload.GRIDS:
            per[name] = serial(gridload.make_sweep(name, seed))
        service = {}
        for campaign in (serviceload.warm_campaign(seed),
                         serviceload.cold_campaign(seed)):
            service.update(serial(CampaignSpec.from_dict(campaign).to_sweep()))
        per["service-campaigns"] = service
        doc["seeds"][str(seed)] = per
        print(f"seed {seed}: " + ", ".join(
            f"{k}={len(v)}" for k, v in per.items()), flush=True)
    with open(os.path.join(HERE, "pins.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
