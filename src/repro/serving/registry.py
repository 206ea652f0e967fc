"""Model registry: fitted pipelines keyed by trace identity + config.

The registry is the serving layer's source of truth for *which fitted
model answers a query*.  Keys combine the trace's content fingerprint
(:meth:`AttackTrace.fingerprint`) with the spatiotemporal config, so a
trace extended with newly verified attacks -- the feedback loop of
§III-B3 -- maps to a new key, refits, and bumps the lineage version
while the previous model keeps serving until eviction.  ``roll`` wraps
the :class:`~repro.core.online.OnlinePredictor` rolling-refit protocol
for origin-bounded refreshes.
"""

from __future__ import annotations

import inspect
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.core.online import OnlinePredictor
from repro.core.pipeline import AttackPredictor
from repro.core.spatiotemporal import SpatiotemporalConfig
from repro.dataset.generator import SimulationEnvironment
from repro.dataset.records import AttackTrace
from repro.persistence.state import (
    STATE_SCHEMA_VERSION,
    StateSchemaError,
    state_errors,
)
from repro.persistence.store import ModelStore
from repro.serving.cache import LRUTTLCache
from repro.telemetry import Telemetry

__all__ = ["ModelKey", "RegisteredModel", "ModelRegistry"]

# factory(trace, env, config) -> fitted AttackPredictor.  Factories may
# optionally accept a ``warm_from`` keyword (a previous AttackPredictor
# of the same lineage) to seed incremental refreshes; the registry
# detects support by signature and calls 3-arg factories unchanged.
PredictorFactory = Callable[
    [AttackTrace, SimulationEnvironment, SpatiotemporalConfig | None],
    AttackPredictor,
]


def _default_factory(trace: AttackTrace, env: SimulationEnvironment,
                     config: SpatiotemporalConfig | None,
                     warm_from: AttackPredictor | None = None) -> AttackPredictor:
    return AttackPredictor(trace, env, config=config).fit(warm_from=warm_from)


def _accepts_warm_from(factory: Callable) -> bool:
    """Whether a factory can take the ``warm_from`` keyword."""
    try:
        parameters = inspect.signature(factory).parameters
    except (TypeError, ValueError):
        return False
    if "warm_from" in parameters:
        return True
    return any(p.kind is inspect.Parameter.VAR_KEYWORD
               for p in parameters.values())


_DEFAULT_CONFIG = SpatiotemporalConfig()


def _config_key(config: SpatiotemporalConfig | None) -> str:
    """The config's repr, computed once per (frozen) config object."""
    config = config or _DEFAULT_CONFIG
    key = config.__dict__.get("_registry_key")
    if key is None:
        key = repr(config)
        object.__setattr__(config, "_registry_key", key)
    return key


@dataclass(frozen=True)
class ModelKey:
    """Identity of a fitted model: trace content + protocol config."""

    fingerprint: str
    config: str

    @property
    def lineage(self) -> str:
        """Version lineage: same config across trace refreshes."""
        return self.config


@dataclass
class RegisteredModel:
    """A fitted pipeline plus its serving provenance."""

    key: ModelKey
    version: int
    predictor: AttackPredictor
    n_attacks: int
    fitted_at: float
    fit_seconds: float

    def to_dict(self, with_state: bool = False) -> dict:
        """JSON-safe provenance; inverse of :meth:`from_dict`.

        With ``with_state=True`` the payload also carries the fitted
        predictor's full ``get_state()`` snapshot -- the persistable
        form the model store writes.  Without it the payload stays
        metrics-sized (the metrics endpoint's view) and cannot be
        restored.
        """
        payload = {
            "schema_version": STATE_SCHEMA_VERSION,
            "fingerprint": self.key.fingerprint,
            "config": self.key.config,
            "version": self.version,
            "n_attacks": self.n_attacks,
            "fitted_at": self.fitted_at,
            "fit_seconds": round(self.fit_seconds, 3),
        }
        if with_state:
            payload["state"] = self.predictor.get_state()
        return payload

    @classmethod
    def from_dict(cls, data: dict, trace: AttackTrace,
                  env: SimulationEnvironment) -> "RegisteredModel":
        """Restore a registered model from ``to_dict(with_state=True)``.

        ``trace``/``env`` provide the context the predictor state binds
        to (the state itself carries only the trace fingerprint).
        Rejects unsupported schema versions and stateless payloads with
        clear errors.
        """
        version = data.get("schema_version")
        if version != STATE_SCHEMA_VERSION:
            raise StateSchemaError(
                f"unsupported RegisteredModel schema_version {version!r}; "
                f"this build supports version {STATE_SCHEMA_VERSION}"
            )
        if "state" not in data or data["state"] is None:
            raise StateSchemaError(
                "RegisteredModel payload has no predictor state; "
                "re-export with to_dict(with_state=True)"
            )
        with state_errors("serving.registered_model"):
            predictor = AttackPredictor.from_state(data["state"], trace, env)
            return cls(
                key=ModelKey(fingerprint=data["fingerprint"],
                             config=data["config"]),
                version=int(data["version"]),
                predictor=predictor,
                n_attacks=int(data["n_attacks"]),
                fitted_at=float(data["fitted_at"]),
                fit_seconds=float(data["fit_seconds"]),
            )


class ModelRegistry:
    """Versioned store of fitted predictors behind an LRU+TTL cache.

    ``factory`` is injectable so tests (and the engine's fault-
    injection paths) can substitute cheap or failing fits.
    """

    def __init__(self, factory: PredictorFactory | None = None,
                 cache: LRUTTLCache | None = None,
                 metrics: Telemetry | None = None) -> None:
        self.factory = factory or _default_factory
        self._factory_warm = _accepts_warm_from(self.factory)
        self.cache = cache or LRUTTLCache(max_entries=8)
        self.metrics = metrics or Telemetry()
        self._lock = threading.Lock()
        self._versions: dict[str, int] = {}
        self._latest: dict[str, RegisteredModel] = {}

    # ----- lookup / fit -----

    def key_for(self, trace: AttackTrace,
                config: SpatiotemporalConfig | None = None) -> ModelKey:
        """The registry key a (trace, config) pair resolves to."""
        return ModelKey(fingerprint=trace.fingerprint(),
                        config=_config_key(config))

    def get(self, trace: AttackTrace, env: SimulationEnvironment,
            config: SpatiotemporalConfig | None = None, *,
            warm_from: AttackPredictor | None = None,
            fit: bool = True) -> RegisteredModel | None:
        """Fetch the fitted model for this trace, fitting on first use.

        Concurrent callers missing on the same key share one fit.  A
        factory failure propagates to every waiter (the engine turns it
        into a degraded baseline answer).  An explicit ``warm_from``
        predictor seeds the fit in preference to the lineage's own
        previous model (ignored when the factory cannot take it).

        With ``fit=False`` a miss returns None instead of fitting and is
        not counted as a registry miss.  The engine's lookup uses it:
        that lookup runs on the caller's thread, possibly an event loop,
        so it must never fit.
        """
        key = self.key_for(trace, config)

        def fit_model() -> RegisteredModel:
            self.metrics.incr("serving.registry.fits")
            # Incremental refresh (ROADMAP): seed the optimizers from the
            # lineage's previous fit -- same config, refreshed trace.
            seed = warm_from if self._factory_warm else None
            if seed is None and self._factory_warm:
                with self._lock:
                    previous = self._latest.get(key.lineage)
                if previous is not None:
                    seed = previous.predictor
            t0 = time.perf_counter()
            if seed is not None:
                self.metrics.incr("serving.registry.warm_starts")
                predictor = self.factory(trace, env, config, warm_from=seed)
            else:
                predictor = self.factory(trace, env, config)
            fit_seconds = time.perf_counter() - t0
            with self._lock:
                version = self._versions.get(key.lineage, 0) + 1
                self._versions[key.lineage] = version
                model = RegisteredModel(
                    key=key,
                    version=version,
                    predictor=predictor,
                    n_attacks=len(trace),
                    fitted_at=time.time(),
                    fit_seconds=fit_seconds,
                )
                self._latest[key.lineage] = model
            return model

        with self.metrics.timer("serving.registry.get"):
            if fit:
                model, hit = self.cache.get_or_create(key, fit_model)
            else:
                model = self.cache.get(key)
                hit = model is not None
        if hit or fit:
            self.metrics.incr(
                "serving.registry.hits" if hit else "serving.registry.misses"
            )
        return model

    def refresh(self, trace: AttackTrace, env: SimulationEnvironment,
                config: SpatiotemporalConfig | None = None, *,
                warm_from: AttackPredictor | None = None) -> RegisteredModel:
        """Force a refit (even for a known trace) and bump the version.

        The operational entry point for "new verified attacks arrived":
        call with the extended trace and the lineage advances.
        """
        key = self.key_for(trace, config)
        self.cache.invalidate(key)
        self.metrics.incr("serving.registry.refreshes")
        return self.get(trace, env, config, warm_from=warm_from)

    def roll(self, trace: AttackTrace, env: SimulationEnvironment,
             origin_day: float,
             config: SpatiotemporalConfig | None = None) -> RegisteredModel | None:
        """Versioned refresh at a rolling origin (wraps OnlinePredictor).

        Fits on everything observed before ``origin_day`` via
        :meth:`OnlinePredictor.predictor_at`; returns ``None`` when the
        origin leaves too little usable history, mirroring the online
        protocol's skip behavior.
        """
        online = OnlinePredictor(trace, env, config=config)
        predictor = online.predictor_at(origin_day)
        if predictor is None:
            self.metrics.incr("serving.registry.roll_skips")
            return None
        key = ModelKey(
            fingerprint=f"{trace.fingerprint()}@d{origin_day:g}",
            config=_config_key(config),
        )
        with self._lock:
            version = self._versions.get(key.lineage, 0) + 1
            self._versions[key.lineage] = version
            model = RegisteredModel(
                key=key,
                version=version,
                predictor=predictor,
                n_attacks=len(predictor.train_attacks),
                fitted_at=time.time(),
                fit_seconds=predictor.fit_seconds,
            )
            self._latest[key.lineage] = model
        self.cache.put(key, model)
        self.metrics.incr("serving.registry.rolls")
        return model

    # ----- persistence -----

    def save(self, path: str | Path) -> dict:
        """Snapshot every lineage's latest fitted model to a store.

        Writes a :class:`~repro.persistence.store.ModelStore` directory
        (manifest + one gzip JSON entry per lineage) and returns the
        manifest.  The trace itself is not stored -- pair this with
        ``save_trace`` when the trace is not regenerable.
        """
        with self._lock:
            models = list(self._latest.values())
        manifest = ModelStore(path).save(
            [model.to_dict(with_state=True) for model in models]
        )
        self.metrics.incr("serving.registry.saves")
        return manifest

    def save_version(self, path: str | Path, *,
                     keep_last: int | None = None,
                     trace: AttackTrace | None = None,
                     extra_files: dict[str, object] | None = None) -> Path:
        """Export the latest models as a new version under a store root.

        Stages a complete candidate directory, optionally embeds the
        trace the models were fitted on (``ModelStore.TRACE_FILE``, so
        a replica handed only ``--store`` can rebind the state), then
        activates it atomically and prunes versions beyond
        ``keep_last``.  Returns the activated version directory.  For
        a verify-before-activate flow use the store's
        ``stage_version``/``activate_version`` directly (that is what
        :class:`repro.ingest.RefreshPipeline` does).
        """
        with self._lock:
            models = list(self._latest.values())
        store = ModelStore(path)
        staged = store.stage_version(
            [model.to_dict(with_state=True) for model in models],
            extra_files=extra_files,
        )
        if trace is not None:
            from repro.dataset.loader import save_trace
            save_trace(trace, staged / ModelStore.TRACE_FILE)
        active = store.activate_version(staged)
        if keep_last is not None:
            store.prune(keep_last=keep_last)
        self.metrics.incr("serving.registry.saves")
        return active

    def load(self, path: str | Path, trace: AttackTrace,
             env: SimulationEnvironment) -> list[RegisteredModel]:
        """Warm-start the registry from a store -- no refitting.

        Restores every stored entry whose fingerprint matches ``trace``
        into the cache and lineage tables (so ``get`` serves them
        directly and ``refresh`` continues their version counters).
        Entries fitted on other traces are skipped and counted in
        ``serving.registry.restore_skips``.  Returns the restored models.
        """
        store = ModelStore(path)
        fingerprint = trace.fingerprint()
        restored: list[RegisteredModel] = []
        for stored in store.load():
            if stored.fingerprint != fingerprint:
                self.metrics.incr("serving.registry.restore_skips")
                continue
            model = RegisteredModel.from_dict(stored.payload, trace, env)
            with self._lock:
                known = self._versions.get(model.key.lineage, 0)
                self._versions[model.key.lineage] = max(known, model.version)
                self._latest[model.key.lineage] = model
            self.cache.put(model.key, model)
            self.metrics.incr("serving.registry.restores")
            restored.append(model)
        return restored

    # ----- introspection -----

    def latest(self, config: SpatiotemporalConfig | None = None) -> RegisteredModel | None:
        """Most recently fitted model of a config lineage, if any."""
        with self._lock:
            return self._latest.get(_config_key(config))

    def version_of(self, config: SpatiotemporalConfig | None = None) -> int:
        """Current version counter of a config lineage (0 = never fitted)."""
        with self._lock:
            return self._versions.get(_config_key(config), 0)

    def snapshot(self) -> dict:
        """JSON-safe registry state for the metrics endpoint."""
        with self._lock:
            latest = {
                lineage: model.to_dict()
                for lineage, model in self._latest.items()
            }
        return {
            "lineages": latest,
            "cache": self.cache.stats.to_dict(),
            "cached_models": len(self.cache),
        }
