"""End-to-end prediction pipeline.

:class:`AttackPredictor` is the public facade a downstream user (e.g. a
mitigation provider) would use: feed it a trace and its environment,
and it trains the temporal, spatial and spatiotemporal models with the
paper's 80/20 chronological protocol, then answers per-target
predictions of the next attack.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.spatial import SpatialModel
from repro.core.spatiotemporal import (
    AttackContext,
    AttackPrediction,
    HistoryIndex,
    SpatiotemporalConfig,
    SpatiotemporalModel,
)
from repro.core.temporal import TemporalModel
from repro.dataset.generator import SimulationEnvironment
from repro.dataset.loader import train_test_split
from repro.dataset.records import AttackRecord, AttackTrace
from repro.features.variables import FeatureExtractor
from repro.persistence.state import pack_state, require_state, state_guard

__all__ = ["AttackPredictor"]


class AttackPredictor:
    """Trains all three models and serves predictions."""

    def __init__(self, trace: AttackTrace, env: SimulationEnvironment,
                 train_fraction: float = 0.8,
                 config: SpatiotemporalConfig | None = None,
                 use_grid_search: bool = False) -> None:
        self.fx = FeatureExtractor(trace, env)
        self.train_fraction = train_fraction
        self.use_grid_search = use_grid_search
        self.train_attacks, self.test_attacks = train_test_split(
            trace.attacks, train_fraction
        )
        self.split_time = (
            self.test_attacks[0].start_time if self.test_attacks else float("inf")
        )
        self.temporal = TemporalModel()
        self.spatial = SpatialModel(use_grid_search=use_grid_search)
        self.spatiotemporal = SpatiotemporalModel(
            self.temporal, self.spatial, config=config
        )
        self.index: HistoryIndex | None = None
        self._fitted = False
        self.fit_seconds = 0.0

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed."""
        return self._fitted

    def fit(self, warm_from: "AttackPredictor | None" = None) -> "AttackPredictor":
        """Fit temporal -> spatial -> spatiotemporal on the train split.

        ``warm_from`` seeds the expensive sub-model optimizers (ARIMA
        orders + coefficients, NAR weights) from a previously fitted
        predictor -- the registry's incremental-refresh path when a
        trace is extended with newly verified attacks.  The combination
        trees always refit (they are cheap and structure-dependent).
        """
        t0 = time.perf_counter()
        self.temporal.fit(self.fx, self.split_time,
                          warm_from=warm_from.temporal if warm_from else None)
        self.spatial.fit(self.fx, self.split_time,
                         warm_from=warm_from.spatial if warm_from else None)
        self.index = HistoryIndex(self.fx)
        self.spatiotemporal.fit(self.fx, self.train_attacks, index=self.index)
        self.fit_seconds = time.perf_counter() - t0
        self._fitted = True
        return self

    def _require_fitted(self) -> HistoryIndex:
        if not self._fitted or self.index is None:
            raise RuntimeError("fit() first")
        return self.index

    def predict_attack(self, attack: AttackRecord) -> AttackPrediction | None:
        """Predict one attack from the history observable before it."""
        index = self._require_fitted()
        return self.spatiotemporal.predict_attack(attack, index)

    def predict_next_for_network(self, asn: int, family: str,
                                 now: float | None = None) -> AttackPrediction | None:
        """Forecast the next ``family`` attack on network ``asn``.

        ``now`` defaults to the end of the trace; the context is
        whatever the target could have observed up to then.  Returns
        ``None`` when the network has too little history.
        """
        index = self._require_fitted()
        cfg = self.spatiotemporal.config
        if now is None:
            now = self.fx.trace.n_hours * 3600.0
        context = AttackContext.observe(index, family, asn, now,
                                        cfg.n_same_as, cfg.n_recent)
        if len(context.same_as) < cfg.min_same_as:
            return None
        return self.spatiotemporal.predict_context(context)

    def predict_test_set(self) -> list[tuple[AttackRecord, AttackPrediction]]:
        """Predict every predictable attack in the held-out test split."""
        index = self._require_fitted()
        out = []
        for attack in self.test_attacks:
            prediction = self.spatiotemporal.predict_attack(attack, index)
            if prediction is not None:
                out.append((attack, prediction))
        return out

    def coverage(self) -> float:
        """Fraction of test attacks with enough history to predict."""
        if not self.test_attacks:
            return 0.0
        predicted = sum(
            1 for a in self.test_attacks
            if self.predict_attack(a) is not None
        )
        return predicted / len(self.test_attacks)

    # ----- persistence -----

    def get_state(self) -> dict:
        """JSON-safe snapshot of the whole fitted pipeline.

        The trace itself is *not* embedded (it has its own persistence
        via ``save_trace``); its content fingerprint is, so
        :meth:`from_state` can refuse to bind the state to the wrong
        trace.
        """
        if not self._fitted:
            raise RuntimeError("fit() before get_state()")
        return pack_state("core.attack_predictor", {
            "trace_fingerprint": self.fx.trace.fingerprint(),
            "n_attacks": len(self.fx.trace.attacks),
            "train_fraction": self.train_fraction,
            "use_grid_search": self.use_grid_search,
            "fit_seconds": self.fit_seconds,
            "temporal": self.temporal.get_state(),
            "spatial": self.spatial.get_state(),
            "spatiotemporal": self.spatiotemporal.get_state(),
        })

    @classmethod
    @state_guard
    def from_state(cls, state: dict, trace: AttackTrace,
                   env: SimulationEnvironment) -> "AttackPredictor":
        """Restore a fitted pipeline onto its trace -- no refitting.

        The feature extractor, chronological split and history index
        are derived state and are rebuilt from ``trace`` (cheap);
        everything learned is taken from ``state``.  Raises
        :class:`~repro.persistence.state.StateError` via the fingerprint
        check when ``trace`` is not the trace the state was fitted on.
        """
        state = require_state(state, "core.attack_predictor")
        fingerprint = trace.fingerprint()
        if state["trace_fingerprint"] != fingerprint:
            raise ValueError(
                f"state was fitted on trace {state['trace_fingerprint']} "
                f"({state['n_attacks']} attacks) but was asked to bind to "
                f"trace {fingerprint} ({len(trace.attacks)} attacks)"
            )
        predictor = cls(trace, env, train_fraction=state["train_fraction"],
                        use_grid_search=state["use_grid_search"])
        predictor.temporal = TemporalModel.from_state(state["temporal"])
        predictor.spatial = SpatialModel.from_state(state["spatial"])
        predictor.spatiotemporal = SpatiotemporalModel.from_state(
            state["spatiotemporal"], predictor.temporal, predictor.spatial
        )
        predictor.index = HistoryIndex(predictor.fx)
        predictor.fit_seconds = state["fit_seconds"]
        predictor._fitted = True
        return predictor
