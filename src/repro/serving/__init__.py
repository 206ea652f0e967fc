"""In-process forecast serving: registry, caches, engine, telemetry.

Turns the one-shot research pipeline into an operational service
shape (the §I/§VI-B mitigation-provider story):

* :mod:`repro.serving.registry` -- fitted pipelines keyed by trace
  fingerprint + config, with versioned refresh as new verified attacks
  arrive.
* :mod:`repro.serving.cache` -- thread-safe LRU + TTL caching of
  fitted state and per-target forecasts.
* :mod:`repro.serving.engine` -- single and batched forecast queries,
  coalesced and fanned across a thread pool, degrading to the §VII-A
  baselines when the model cannot answer.
* :mod:`repro.serving.sharded` -- the same engine surface over N
  worker processes, partitioned by a stable hash of the per-target
  query key, with crash restart and §VII-A degradation.

Quickstart::

    from repro import DatasetConfig, TraceGenerator
    from repro.serving import ForecastEngine, ForecastRequest

    trace, env = TraceGenerator(DatasetConfig(n_days=60, seed=7)).generate()
    with ForecastEngine(trace, env) as engine:
        engine.warm()
        forecast = engine.query(asn=trace.attacks[0].target_asn,
                                family=trace.families()[0])
        print(forecast.to_dict())
        print(engine.metrics_snapshot())
"""

from repro.serving.cache import CacheStats, LRUTTLCache
from repro.serving.engine import (
    EngineClosedError,
    Forecast,
    ForecastEngine,
    ForecastRequest,
)
from repro.serving.engine import BaselineFallback
from repro.telemetry import LatencyHistogram, Telemetry
from repro.serving.registry import ModelKey, ModelRegistry, RegisteredModel
from repro.serving.sharded import ShardedForecastEngine, shard_index

__all__ = [
    "BaselineFallback",
    "CacheStats",
    "LRUTTLCache",
    "EngineClosedError",
    "Forecast",
    "ForecastEngine",
    "ForecastRequest",
    "LatencyHistogram",
    "Telemetry",
    "ModelKey",
    "ModelRegistry",
    "RegisteredModel",
    "ShardedForecastEngine",
    "shard_index",
]
