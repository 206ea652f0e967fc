"""One observability layer for the whole serving stack.

``repro.telemetry`` is where the stack's three formerly ad-hoc
telemetry surfaces (the in-process engine's counters, the sharded
engine's ``sharded.*`` counters, the cluster client's ``cluster.*``
counters) converge:

* :mod:`repro.telemetry.metrics` -- the :class:`Telemetry` registry:
  namespaced counters/histograms (``serving.*``, ``server.*``,
  ``shard.*``, ``cluster.*``), a ``METRICS_SCHEMA_VERSION``-stamped
  snapshot, Prometheus text exposition, and snapshot merging for
  cluster-wide views.
* :mod:`repro.telemetry.tracing` -- per-request ``trace_id`` + hop
  spans carried end to end as the ``X-Repro-Trace`` header / frame
  field and echoed in every forecast and error body.
* :mod:`repro.telemetry.accesslog` -- structured JSON access-log
  lines with sampling and a slow-request hook.

This package is a leaf: stdlib + numpy only, no ``repro`` imports, so
every layer of the stack can depend on it without cycles.
"""

from repro.telemetry.accesslog import AccessLog
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    METRICS_SCHEMA_VERSION,
    LatencyHistogram,
    Telemetry,
    merge_snapshots,
    to_prometheus,
)
from repro.telemetry.tracing import (
    TRACE_HEADER,
    Span,
    TraceContext,
    format_span_tree,
    new_trace_id,
    valid_trace_id,
)

__all__ = [
    "AccessLog",
    "DEFAULT_BUCKETS",
    "METRICS_SCHEMA_VERSION",
    "LatencyHistogram",
    "Span",
    "TRACE_HEADER",
    "Telemetry",
    "TraceContext",
    "format_span_tree",
    "merge_snapshots",
    "new_trace_id",
    "to_prometheus",
    "valid_trace_id",
]
