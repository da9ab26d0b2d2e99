"""Hierarchical metrics registry: counters, gauges, log2 histograms.

The registry is the *pull* side of ``repro.telemetry``: components
publish their counters into per-component namespaces (``core.N.*``,
``dir.bank.N.*``, ``noc.link.X_Y.*``, ``htm.nack.*``, ``lock_tx.*``)
via dotted metric names, and sinks/CLI render or serialize the
resulting flat snapshot.  Histograms reuse
:class:`repro.common.stats.LatencyHistogram` (streaming log2 buckets,
O(1) memory) so per-core latency distributions merge for free.

Simulator hot paths carry no metric calls: components publish only
when a telemetry session finalizes (see :mod:`repro.telemetry.session`),
which is what keeps the seed goldens bit-identical.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.common.stats import LatencyHistogram


class Counter:
    """Monotonic event count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def as_value(self):
        return self.value


class Gauge:
    """Last-written value (numbers or small JSON-able snapshots)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = None

    def set(self, value) -> None:
        self.value = value

    def as_value(self):
        return self.value


Metric = Union[Counter, Gauge, LatencyHistogram]


def _hist_value(hist: LatencyHistogram) -> Dict[str, object]:
    return {
        "count": hist.count,
        "total": hist.total,
        "mean": hist.mean,
        "p50_ub": hist.quantile_upper_bound(0.5) if hist.count else 0,
        "p99_ub": hist.quantile_upper_bound(0.99) if hist.count else 0,
        "buckets": {str(k): v for k, v in sorted(hist.buckets.items())},
    }


class MetricsRegistry:
    """Flat name -> metric map with dotted-namespace conveniences."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # -- creation ------------------------------------------------------

    def _get_or_create(self, name: str, cls):
        if not name or name.startswith(".") or name.endswith("."):
            raise ValueError(f"bad metric name {name!r}")
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls()
            self._metrics[name] = metric
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> LatencyHistogram:
        return self._get_or_create(name, LatencyHistogram)

    def set(self, name: str, value) -> None:
        """Shorthand: write ``value`` into gauge ``name``."""
        self.gauge(name).set(value)

    def scope(self, prefix: str) -> "Scope":
        return Scope(self, prefix)

    # -- queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def value(self, name: str):
        metric = self._metrics[name]
        if isinstance(metric, LatencyHistogram):
            return _hist_value(metric)
        return metric.as_value()

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def namespaces(self) -> List[str]:
        """Sorted set of first-level name components."""
        return sorted({n.split(".", 1)[0] for n in self._metrics})

    def query(self, prefix: str) -> Dict[str, object]:
        """Snapshot of every metric under ``prefix`` (dot-aware)."""
        dotted = prefix + "." if prefix and not prefix.endswith(".") else prefix
        return {
            n: self.value(n)
            for n in self.names()
            if n == prefix or n.startswith(dotted)
        }

    def snapshot(self) -> Dict[str, object]:
        """The full registry as one sorted, JSON-able dict."""
        return {n: self.value(n) for n in self.names()}

    def render(self, prefix: str = "", limit: Optional[int] = None) -> str:
        """Human-readable ``name value`` listing (for the CLI)."""
        items: Iterable[Tuple[str, object]] = (
            self.query(prefix) if prefix else self.snapshot()
        ).items()
        lines = []
        for name, value in items:
            if isinstance(value, dict):  # histogram summary
                value = (
                    f"n={value['count']} mean={value['mean']:.1f} "
                    f"p99<={value['p99_ub']}"
                )
            lines.append(f"  {name:<44s} {value}")
            if limit is not None and len(lines) >= limit:
                lines.append(f"  ... ({len(self._metrics)} metrics total)")
                break
        return "\n".join(lines)


class Scope:
    """A dotted-prefix view of a registry (hierarchical namespaces)."""

    __slots__ = ("_registry", "prefix")

    def __init__(self, registry: MetricsRegistry, prefix: str) -> None:
        self._registry = registry
        self.prefix = prefix.rstrip(".")

    def _name(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name

    def counter(self, name: str) -> Counter:
        return self._registry.counter(self._name(name))

    def gauge(self, name: str) -> Gauge:
        return self._registry.gauge(self._name(name))

    def histogram(self, name: str) -> LatencyHistogram:
        return self._registry.histogram(self._name(name))

    def set(self, name: str, value) -> None:
        self._registry.set(self._name(name), value)

    def scope(self, prefix: str) -> "Scope":
        return Scope(self._registry, self._name(prefix))
