"""Wire-level campaign model.

A *campaign* is what a client submits: either a cartesian **sweep**
(workloads x systems x threads x seeds x params tags) or a **multiseed**
study (one configuration repeated across seeds — a degenerate sweep
whose results additionally carry a per-metric summary).  Both
canonicalize into an ordered list of :class:`CellSpec`, and the order is
exactly :meth:`repro.harness.sweeps.Sweep.points` so a service-side
campaign lines up cell-for-cell with a serial ``Sweep.run`` — the
determinism pin the service test suite enforces.

Each cell is addressed by its content hash
(:func:`repro.harness.runcache.cell_key`), which is what the scheduler
deduplicates on: against the persistent store *and* against cells
already in flight for other jobs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.common.params import (
    SystemParams,
    large_cache_params,
    small_cache_params,
    typical_params,
)
from repro.core.policies import SystemSpec
from repro.harness.runcache import cell_keyer
from repro.harness.systems import resolve_system
from repro.workloads.registry import get_workload

#: Named machine configurations a campaign may reference over the wire.
PARAMS_TAGS = {
    "typical": typical_params,
    "small": small_cache_params,
    "large": large_cache_params,
}

KINDS = ("sweep", "multiseed")

#: Most campaigns :data:`_EXPANSIONS` holds; the least recently
#: expanded goes first.
MAX_EXPANSIONS = 256

#: Expanded campaigns, keyed by the frozen spec's value, so every
#: submit of one campaign shares one tuple of cells.  Equal specs
#: expand to equal cells: the cell fields and keys coerce the numeric
#: coordinates.
_EXPANSIONS: "OrderedDict[CampaignSpec, Tuple[CellSpec, ...]]" = OrderedDict()
#: The service's event loop and its callers' threads both expand.
_EXPANSIONS_LOCK = threading.Lock()


@dataclass(frozen=True)
class CellSpec:
    """One fully resolved cell of a campaign, with its cache key."""

    index: int
    workload: str
    system: str
    threads: int
    scale: float
    seed: int
    params_tag: str
    spec: SystemSpec = field(repr=False, compare=False)
    params: SystemParams = field(repr=False, compare=False)
    key: str = field(compare=False)

    def label(self) -> str:
        return (
            f"{self.workload}/{self.system}/t{self.threads}"
            f"/s{self.seed}/{self.params_tag}"
        )


@dataclass(frozen=True)
class CampaignSpec:
    """A validated campaign definition (the POST /v1/jobs payload)."""

    kind: str
    workloads: Tuple[str, ...]
    systems: Tuple[str, ...]
    threads: Tuple[int, ...] = (8,)
    seeds: Tuple[int, ...] = (42,)
    scale: float = 0.25
    params_tags: Tuple[str, ...] = ("typical",)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(
                f"unknown campaign kind {self.kind!r}; choose from {KINDS}"
            )
        if not self.workloads or not self.systems:
            raise ConfigError("campaign needs >= 1 workload and >= 1 system")
        if self.kind == "multiseed" and (
            len(self.workloads) != 1
            or len(self.systems) != 1
            or len(self.threads) != 1
        ):
            raise ConfigError(
                "multiseed campaigns fix one workload, one system and "
                "one thread count (vary only seeds)"
            )
        if not self.threads or not self.seeds:
            raise ConfigError("campaign needs >= 1 thread count and seed")
        if self.scale <= 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")
        for tag in self.params_tags:
            if tag not in PARAMS_TAGS:
                raise ConfigError(
                    f"unknown params tag {tag!r}; choose from "
                    f"{sorted(PARAMS_TAGS)}"
                )
        for wl in self.workloads:
            get_workload(wl)  # raises ConfigError on unknown names
        for system in self.systems:
            resolve_system(system)

    # -- canonical forms -----------------------------------------------

    def size(self) -> int:
        return (
            len(self.workloads)
            * len(self.systems)
            * len(self.threads)
            * len(self.seeds)
            * len(self.params_tags)
        )

    def cells(self) -> Tuple[CellSpec, ...]:
        """Expand to cells in exactly ``Sweep.points`` order.

        Repeat campaigns are served from a bounded memo: the returned
        tuple is shared, like the frozen cells in it.
        """
        with _EXPANSIONS_LOCK:
            try:
                cells = _EXPANSIONS.get(self)
            except TypeError:  # a field holds a list: unhashable, unshared
                return self._expand()
            if cells is None:
                cells = _EXPANSIONS[self] = self._expand()
                if len(_EXPANSIONS) > MAX_EXPANSIONS:
                    _EXPANSIONS.popitem(last=False)
            else:
                _EXPANSIONS.move_to_end(self)
        return cells

    def _expand(self) -> Tuple[CellSpec, ...]:
        specs = {s: resolve_system(s) for s in self.systems}
        params = {t: PARAMS_TAGS[t]() for t in self.params_tags}
        key_of = cell_keyer()
        out: List[CellSpec] = []
        for i, (wl, system, th, seed, tag) in enumerate(
            itertools.product(
                self.workloads,
                self.systems,
                self.threads,
                self.seeds,
                self.params_tags,
            )
        ):
            spec, p = specs[system], params[tag]
            out.append(
                CellSpec(
                    index=i,
                    workload=wl,
                    system=system,
                    threads=int(th),
                    scale=float(self.scale),
                    seed=int(seed),
                    params_tag=tag,
                    spec=spec,
                    params=p,
                    key=key_of(wl, spec, p, th, self.scale, seed),
                )
            )
        return tuple(out)

    def to_sweep(self):
        """The equivalent serial :class:`~repro.harness.sweeps.Sweep`."""
        from repro.harness.sweeps import Sweep

        return Sweep(
            workloads=list(self.workloads),
            systems=list(self.systems),
            threads=tuple(self.threads),
            seeds=tuple(self.seeds),
            scale=float(self.scale),
            params_by_tag={t: PARAMS_TAGS[t]() for t in self.params_tags},
            spec_resolver=resolve_system,
        )

    # -- wire format ---------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "workloads": list(self.workloads),
            "systems": list(self.systems),
            "threads": list(self.threads),
            "seeds": list(self.seeds),
            "scale": self.scale,
            "params_tags": list(self.params_tags),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "CampaignSpec":
        if not isinstance(data, Mapping):
            raise ConfigError("campaign payload must be a JSON object")
        unknown = set(data) - {
            "kind", "workloads", "systems", "threads", "seeds",
            "scale", "params_tags",
        }
        if unknown:
            raise ConfigError(
                f"unknown campaign field(s): {sorted(unknown)}"
            )

        def as_tuple(name: str, default, coerce):
            raw = data.get(name, default)
            if isinstance(raw, (str, int, float)):
                raw = [raw]
            if not isinstance(raw, Sequence):
                raise ConfigError(f"campaign field {name!r} must be a list")
            try:
                return tuple(coerce(v) for v in raw)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"campaign field {name!r} has a non-{coerce.__name__} "
                    f"entry: {raw!r}"
                ) from None

        try:
            scale = float(data.get("scale", 0.25))
        except (TypeError, ValueError):
            raise ConfigError(
                f"campaign scale must be a number, got {data.get('scale')!r}"
            ) from None
        return cls(
            kind=str(data.get("kind", "sweep")),
            workloads=as_tuple("workloads", (), str),
            systems=as_tuple("systems", (), str),
            threads=as_tuple("threads", (8,), int),
            seeds=as_tuple("seeds", (42,), int),
            scale=scale,
            params_tags=as_tuple("params_tags", ("typical",), str),
        )

    def digest(self) -> str:
        """Stable content hash of the campaign definition."""
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
