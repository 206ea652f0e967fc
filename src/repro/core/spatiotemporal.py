"""Spatiotemporal modeling (§VI).

For a specific target, the model combines the outputs of the family
temporal models and the per-AS spatial models through a regression
tree with MLR leaves.  Following §VI-B, each prediction uses two
history groups the target can plausibly observe: the last
``n_same_as`` attacks in its own network and the last ``n_recent``
attacks anywhere.  The constructed tree's input nodes mirror the
paper's: ``N_tmp`` (temporal hourly prediction), ``N_spa`` (spatial
hourly prediction) and ``N_int`` (temporal interval prediction), plus
the average bot magnitude that the unpruned tree was observed to use.

The tree's inputs split into blocks that each depend on one history
prefix only: the family block (§IV ARIMA hour and interval, the implied
hour, the family rate) on the family's last ``n_recent`` attacks, the
network block (§V NAR hour, interval and duration, the same-AS
summaries) on the AS's last ``n_same_as`` observations, and the
recent-magnitude mean on the last ``n_recent`` attacks anywhere.  A
fitted :class:`SpatiotemporalModel` memoizes each block under the
prefix's group and end position in its :class:`HistoryIndex`, so a
query computes the models once per prefix and afterwards only assembles
the 19 inputs and evaluates the trees.  Empty prefixes are never
memoized: their fallbacks read the query's own timestamp.
"""

from __future__ import annotations

import bisect
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.spatial import SpatialModel
from repro.core.temporal import TemporalModel
from repro.dataset.records import DAY, AttackRecord
from repro.features.variables import FeatureExtractor, TargetObservation
from repro.persistence.state import (
    decode_optional,
    encode_optional,
    pack_state,
    require_state,
    state_guard,
)
from repro.tree.model_tree import ModelTree

__all__ = [
    "HistoryIndex",
    "AttackContext",
    "AttackPrediction",
    "SpatiotemporalConfig",
    "SpatiotemporalModel",
]

FEATURE_NAMES: tuple[str, ...] = (
    "n_tmp_hour",        # temporal model's hour prediction (node N_tmp)
    "n_spa_hour",        # spatial model's hour prediction (node N_spa)
    "n_int_log",         # temporal interval prediction, log1p sec (node N_int)
    "implied_tmp_hour",  # hour implied by last family attack + N_int
    "spa_interval_log",  # spatial interval prediction, log1p seconds
    "implied_spa_hour",  # hour implied by last same-AS attack + interval
    "spa_day_gap",       # spatial interval in days
    "last_same_hour",    # hour of the last same-AS attack
    "mean_same_hour",    # mean hour over the same-AS history
    "mean_same_dur_log", # mean log-duration over the same-AS history
    "spa_duration_log",  # spatial duration prediction, log1p seconds
    "mean_same_mag_log", # average magnitude of bots, same-AS history
    "mean_recent_mag_log",  # average magnitude of bots, recent history
    "family_rate_log",   # family mean inter-launch gap, log1p seconds
    "last_same_gap_log",  # last observed same-AS inter-launch gap
    "n_tmp_hour_sin",    # circular embedding of the temporal hour
    "n_tmp_hour_cos",
    "n_spa_hour_sin",    # circular embedding of the spatial hour
    "n_spa_hour_cos",
)


class HistoryIndex:
    """Fast "last n events before t" lookups over a trace.

    Binary-searches precomputed chronological lists per target AS, per
    family, and globally.  Each lookup also returns ``end``, the
    bisection position the slice stops at: together with the group and
    the slice length it names the prefix exactly, which is what the
    model's feature-block memo keys on.
    """

    def __init__(self, fx: FeatureExtractor) -> None:
        self._fx = fx
        self._global: list[AttackRecord] = sorted(
            fx.trace.attacks, key=lambda a: (a.start_time, a.ddos_id)
        )
        self._global_times = [a.start_time for a in self._global]
        self._by_family: dict[str, list[AttackRecord]] = {}
        self._family_times: dict[str, list[float]] = {}
        for family in fx.families():
            attacks = fx.family_attacks(family)
            self._by_family[family] = attacks
            self._family_times[family] = [a.start_time for a in attacks]
        self._by_asn: dict[int, list[TargetObservation]] = {}
        self._asn_times: dict[int, list[float]] = {}
        for asn in fx.target_ases():
            observations = fx.observations_for_asn(asn)
            self._by_asn[asn] = observations
            self._asn_times[asn] = [o.start_time for o in observations]

    def recent_global(self, before: float, n: int) -> tuple[list[AttackRecord], int]:
        """Last ``n`` attacks anywhere strictly before ``before``, and ``end``."""
        i = bisect.bisect_left(self._global_times, before)
        return self._global[max(0, i - n) : i], i

    def recent_family(self, family: str, before: float,
                      n: int) -> tuple[list[AttackRecord], int]:
        """Last ``n`` attacks of ``family`` strictly before ``before``, and ``end``."""
        times = self._family_times.get(family, [])
        i = bisect.bisect_left(times, before)
        return self._by_family.get(family, [])[max(0, i - n) : i], i

    def recent_same_as(self, asn: int, before: float,
                       n: int) -> tuple[list[TargetObservation], int]:
        """Last ``n`` observations in network ``asn`` before ``before``, and ``end``."""
        times = self._asn_times.get(asn, [])
        i = bisect.bisect_left(times, before)
        return self._by_asn.get(asn, [])[max(0, i - n) : i], i


@dataclass
class AttackContext:
    """Everything a target knows just before an attack (§VI-B).

    A context built by :meth:`observe` also carries the index it was
    read from and the end position of each history slice in it; the
    model memoizes its feature blocks under those.  A hand-built
    context without them is computed from scratch.
    """

    family: str
    target_asn: int
    timestamp: float
    same_as: list[TargetObservation]
    recent: list[AttackRecord]
    family_recent: list[AttackRecord]
    history: HistoryIndex | None = None
    same_as_end: int | None = None
    recent_end: int | None = None
    family_end: int | None = None

    @classmethod
    def observe(cls, index: HistoryIndex, family: str, asn: int, now: float,
                n_same_as: int, n_recent: int) -> "AttackContext":
        """Build the context network ``asn`` observes strictly before ``now``."""
        same_as, same_as_end = index.recent_same_as(asn, now, n_same_as)
        recent, recent_end = index.recent_global(now, n_recent)
        family_recent, family_end = index.recent_family(family, now, n_recent)
        return cls(family=family, target_asn=asn, timestamp=now,
                   same_as=same_as, recent=recent, family_recent=family_recent,
                   history=index, same_as_end=same_as_end,
                   recent_end=recent_end, family_end=family_end)

    @classmethod
    def for_attack(cls, attack: AttackRecord, index: HistoryIndex,
                   n_same_as: int, n_recent: int) -> "AttackContext":
        """Build the context observable strictly before ``attack``."""
        return cls.observe(index, attack.family, attack.target_asn,
                           attack.start_time, n_same_as, n_recent)


@dataclass
class AttackPrediction:
    """Predicted features of the next attack on a target.

    ``hour`` is the hour-of-day (0-24); ``day``, ``temporal_day`` and
    ``spatial_day`` are fractional days since the trace epoch.
    Alongside the spatiotemporal outputs, the intermediate
    temporal-only and spatial-only predictions are kept so the Fig. 3/4
    comparisons fall out of a single evaluation pass.
    """

    hour: float
    day: float
    duration: float
    magnitude: float
    temporal_hour: float
    spatial_hour: float
    temporal_day: float
    spatial_day: float
    features: np.ndarray = field(repr=False, default_factory=lambda: np.zeros(0))


@dataclass(frozen=True)
class SpatiotemporalConfig:
    """§VI-B protocol parameters."""

    n_same_as: int = 10
    n_recent: int = 10
    min_same_as: int = 3
    keep_sd: float = 0.88
    max_depth: int = 6
    min_samples_leaf: int = 10

    def __post_init__(self) -> None:
        if self.n_same_as < 1 or self.n_recent < 1:
            raise ValueError("history sizes must be positive")
        if self.min_same_as < 1 or self.min_same_as > self.n_same_as:
            raise ValueError("need 1 <= min_same_as <= n_same_as")

    def get_state(self) -> dict:
        """JSON-safe snapshot; inverse of :meth:`from_state`."""
        return pack_state("core.spatiotemporal_config", asdict(self))

    @classmethod
    @state_guard
    def from_state(cls, state: dict) -> "SpatiotemporalConfig":
        """Rebuild a config (validation re-runs in ``__post_init__``)."""
        state = require_state(state, "core.spatiotemporal_config")
        return cls(**{k: v for k, v in state.items()
                      if k not in ("schema_version", "kind")})


class SpatiotemporalModel:
    """Regression-tree combination of temporal and spatial outputs."""

    def __init__(self, temporal: TemporalModel, spatial: SpatialModel,
                 config: SpatiotemporalConfig | None = None) -> None:
        self.temporal = temporal
        self.spatial = spatial
        self.config = config or SpatiotemporalConfig()
        self._hour_sin_tree: ModelTree | None = None
        self._hour_cos_tree: ModelTree | None = None
        self._day_tree: ModelTree | None = None
        self._duration_tree: ModelTree | None = None
        self._magnitude_tree: ModelTree | None = None
        self._max_day_gap = 14.0
        self._duration_log_std = 0.0
        self._magnitude_log_std = 0.0
        # Feature blocks by history prefix, bound to the index they were
        # read from (see _memo_for).  At most one entry per group and
        # end position; fit() starts it afresh.
        self._memo: tuple[HistoryIndex | None, dict] = (None, {})

    # ----- feature construction -----

    def _memo_for(self, index: HistoryIndex | None) -> dict | None:
        """The block memo filled from ``index``; a new index resets it.

        ``self._memo`` is one ``(index, dict)`` pair swapped in a single
        assignment, so a thread always writes into the dict of the index
        it read its positions from.
        """
        if index is None:
            return None
        bound, memo = self._memo
        if bound is not index:
            memo = {}
            self._memo = (index, memo)
        return memo

    @staticmethod
    def _block(memo: dict | None, group: object, records: list, end: int | None,
               compute, context: AttackContext) -> tuple:
        """``compute(context)``, memoized under the prefix it reads.

        ``records[-len:]`` ending at ``end`` is the whole input of
        ``compute``, so ``(group, len(records), end)`` names its value.
        An empty prefix is never stored: its fallback reads the clock.
        """
        if memo is None or end is None or not records:
            return compute(context)
        key = (group, len(records), end)
        block = memo.get(key)
        if block is None:
            block = memo[key] = compute(context)
        return block

    def _family_block(self, context: AttackContext) -> tuple:
        """§IV inputs from the family's recent attacks."""
        family_model = self.temporal.get(context.family)

        family_hours = np.array([a.start_hour for a in context.family_recent], dtype=float)
        family_starts = np.array([a.start_time for a in context.family_recent])
        family_gaps = np.diff(family_starts) if family_starts.size >= 2 else np.zeros(0)

        if family_model is not None:
            n_tmp_hour = family_model.predict_next_hour(family_hours)
            n_int = family_model.predict_next_interval(family_gaps)
            family_rate = family_model.interval_mean
        else:
            n_tmp_hour = float(family_hours[-1]) if family_hours.size else 12.0
            n_int = float(family_gaps.mean()) if family_gaps.size else 3600.0
            family_rate = n_int

        last_family_time = float(family_starts[-1]) if family_starts.size else context.timestamp
        implied_tmp_hour = ((last_family_time + n_int) % DAY) / 3600.0
        return (
            n_tmp_hour,
            np.log1p(n_int),
            implied_tmp_hour,
            np.log1p(family_rate),
            np.sin(2.0 * np.pi * n_tmp_hour / 24.0),
            np.cos(2.0 * np.pi * n_tmp_hour / 24.0),
        )

    def _network_block(self, context: AttackContext) -> tuple:
        """§V inputs from the target network's recent observations."""
        same_hours = np.array([float(o.hour) for o in context.same_as])
        same_durations = np.array([o.duration for o in context.same_as])
        same_gaps = np.array(
            [o.inter_launch for o in context.same_as if o.inter_launch], dtype=float
        )
        same_magnitudes = np.array([o.magnitude for o in context.same_as], dtype=float)

        n_spa_hour = self.spatial.predict_next_hour(context.target_asn, same_hours)
        spa_interval = self.spatial.predict_next_interval(context.target_asn, same_gaps)
        spa_duration = self.spatial.predict_next_duration(context.target_asn, same_durations)

        last_same_time = (
            context.same_as[-1].start_time if context.same_as else context.timestamp
        )
        implied_spa_hour = ((last_same_time + spa_interval) % DAY) / 3600.0
        return (
            n_spa_hour,
            np.log1p(spa_interval),
            implied_spa_hour,
            spa_interval / DAY,
            float(same_hours[-1]) if same_hours.size else 12.0,
            float(same_hours.mean()) if same_hours.size else 12.0,
            float(np.log1p(same_durations).mean()) if same_durations.size else 7.0,
            np.log1p(spa_duration),
            float(np.log1p(same_magnitudes).mean()) if same_magnitudes.size else 0.0,
            float(np.log1p(same_gaps[-1])) if same_gaps.size else np.log1p(spa_interval),
            np.sin(2.0 * np.pi * n_spa_hour / 24.0),
            np.cos(2.0 * np.pi * n_spa_hour / 24.0),
        )

    @staticmethod
    def _recent_block(context: AttackContext) -> tuple:
        """Average bot magnitude over the recent attacks anywhere."""
        recent_magnitudes = np.array([a.magnitude for a in context.recent], dtype=float)
        return (
            float(np.log1p(recent_magnitudes).mean()) if recent_magnitudes.size else 0.0,
        )

    def _features(self, context: AttackContext) -> np.ndarray:
        memo = self._memo_for(context.history)
        (n_tmp_hour, n_int_log, implied_tmp_hour, family_rate_log,
         n_tmp_hour_sin, n_tmp_hour_cos) = self._block(
            memo, ("family", context.family), context.family_recent,
            context.family_end, self._family_block, context)
        (n_spa_hour, spa_interval_log, implied_spa_hour, spa_day_gap,
         last_same_hour, mean_same_hour, mean_same_dur_log, spa_duration_log,
         mean_same_mag_log, last_same_gap_log,
         n_spa_hour_sin, n_spa_hour_cos) = self._block(
            memo, ("asn", context.target_asn), context.same_as,
            context.same_as_end, self._network_block, context)
        (mean_recent_mag_log,) = self._block(
            memo, "recent", context.recent, context.recent_end,
            self._recent_block, context)

        return np.array([
            n_tmp_hour,
            n_spa_hour,
            n_int_log,
            implied_tmp_hour,
            spa_interval_log,
            implied_spa_hour,
            spa_day_gap,
            last_same_hour,
            mean_same_hour,
            mean_same_dur_log,
            spa_duration_log,
            mean_same_mag_log,
            mean_recent_mag_log,
            family_rate_log,
            last_same_gap_log,
            n_tmp_hour_sin,
            n_tmp_hour_cos,
            n_spa_hour_sin,
            n_spa_hour_cos,
        ])

    # ----- fitting -----

    def fit(self, fx: FeatureExtractor, train_attacks: list[AttackRecord],
            index: HistoryIndex | None = None) -> "SpatiotemporalModel":
        """Train the combination trees on the training attacks.

        Attacks whose same-AS history is shorter than ``min_same_as``
        are skipped -- the paper's protocol assumes 10 observable
        historical attacks per group.
        """
        cfg = self.config
        index = index or HistoryIndex(fx)
        self._memo = (None, {})
        rows: list[np.ndarray] = []
        hour_angles: list[float] = []
        day_y: list[float] = []
        duration_y: list[float] = []
        magnitude_y: list[float] = []
        for attack in train_attacks:
            context = AttackContext.for_attack(attack, index, cfg.n_same_as, cfg.n_recent)
            if len(context.same_as) < cfg.min_same_as:
                continue
            rows.append(self._features(context))
            hour_angles.append(
                2.0 * np.pi * (attack.start_time % DAY) / DAY
            )
            day_gap = (attack.start_time - context.same_as[-1].start_time) / DAY
            day_y.append(float(max(0.0, day_gap)))
            duration_y.append(float(np.log1p(attack.duration)))
            magnitude_y.append(float(np.log1p(attack.magnitude)))
        if len(rows) < 4 * cfg.min_samples_leaf:
            raise ValueError(
                f"only {len(rows)} usable training attacks; need more history"
            )
        x = np.vstack(rows)

        def make_tree() -> ModelTree:
            return ModelTree(
                max_depth=cfg.max_depth,
                min_samples_leaf=cfg.min_samples_leaf,
                min_samples_split=2 * cfg.min_samples_leaf,
                keep_sd=cfg.keep_sd,
            )

        # The hour target lives on a circle; regressing its (sin, cos)
        # embedding and mapping back with atan2 avoids the midnight
        # wrap biasing the squared loss (same treatment as the temporal
        # hour model).
        angles = np.array(hour_angles)
        self._hour_sin_tree = make_tree().fit(x, np.sin(angles))
        self._hour_cos_tree = make_tree().fit(x, np.cos(angles))
        day_arr = np.array(day_y)
        # Clamp future predictions to the bulk of the training gaps: a
        # leaf MLR extrapolating past the observed regime would otherwise
        # dominate the day RMSE with a handful of wild outputs.
        self._max_day_gap = float(np.quantile(day_arr, 0.99)) if day_arr.size else 14.0
        self._day_tree = make_tree().fit(x, day_arr)
        duration_arr = np.array(duration_y)
        magnitude_arr = np.array(magnitude_y)
        self._duration_tree = make_tree().fit(x, duration_arr)
        self._magnitude_tree = make_tree().fit(x, magnitude_arr)
        # Residual spreads on the log scale: exp of a log-scale point
        # prediction is the conditional median; exp(s^2/2) recovers the
        # conditional mean (what RMSE and capacity planning care about).
        self._duration_log_std = float(
            np.std(duration_arr - self._duration_tree.predict(x))
        )
        self._magnitude_log_std = float(
            np.std(magnitude_arr - self._magnitude_tree.predict(x))
        )
        return self

    # ----- prediction -----

    def predict_context(self, context: AttackContext) -> AttackPrediction:
        """Predict the next attack's features from a target context."""
        if self._hour_sin_tree is None or self._hour_cos_tree is None:
            raise RuntimeError("fit() first")
        features = self._features(context)
        row = features.reshape(1, -1)
        sin_hat = float(self._hour_sin_tree.predict(row)[0])
        cos_hat = float(self._hour_cos_tree.predict(row)[0])
        if abs(sin_hat) < 1e-9 and abs(cos_hat) < 1e-9:
            hour = float(features[0])
        else:
            hour = float(np.arctan2(sin_hat, cos_hat) * 24.0 / (2.0 * np.pi) % 24.0)
        day_gap = float(np.clip(self._day_tree.predict(row)[0], 0.0, self._max_day_gap))
        duration_correction = min(np.exp(0.5 * self._duration_log_std**2), 3.0)
        magnitude_correction = min(np.exp(0.5 * self._magnitude_log_std**2), 3.0)
        duration = float(
            np.expm1(np.clip(self._duration_tree.predict(row)[0], 0.0, 13.0))
            * duration_correction
        )
        magnitude = float(
            np.expm1(np.clip(self._magnitude_tree.predict(row)[0], 0.0, 12.0))
            * magnitude_correction
        )

        last_same_time = (
            context.same_as[-1].start_time if context.same_as else context.timestamp
        )
        last_family_time = (
            context.family_recent[-1].start_time if context.family_recent
            else context.timestamp
        )
        n_int = float(np.expm1(features[2]))
        spa_interval = float(np.expm1(features[4]))
        return AttackPrediction(
            hour=hour,
            day=last_same_time / DAY + day_gap,
            duration=duration,
            magnitude=magnitude,
            temporal_hour=float(features[0]),
            spatial_hour=float(features[1]),
            temporal_day=(last_family_time + n_int) / DAY,
            spatial_day=(last_same_time + spa_interval) / DAY,
            features=features,
        )

    def predict_attack(self, attack: AttackRecord, index: HistoryIndex) -> AttackPrediction | None:
        """Predict ``attack`` from the history observable before it.

        Returns ``None`` when the target's same-AS history is too short
        for the §VI-B protocol.
        """
        cfg = self.config
        context = AttackContext.for_attack(attack, index, cfg.n_same_as, cfg.n_recent)
        if len(context.same_as) < cfg.min_same_as:
            return None
        return self.predict_context(context)

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Order of the feature vector columns."""
        return FEATURE_NAMES

    # ----- persistence -----

    _TREE_FIELDS = ("_hour_sin_tree", "_hour_cos_tree", "_day_tree",
                    "_duration_tree", "_magnitude_tree")

    def get_state(self) -> dict:
        """JSON-safe snapshot of the combination trees.

        The temporal and spatial sub-models are *not* embedded here --
        they are owned (and serialized) by the enclosing
        :class:`~repro.core.pipeline.AttackPredictor`, and
        :meth:`from_state` receives them as context arguments.
        """
        payload = {
            field.lstrip("_"): encode_optional(getattr(self, field))
            for field in self._TREE_FIELDS
        }
        payload.update({
            "config": self.config.get_state(),
            "max_day_gap": self._max_day_gap,
            "duration_log_std": self._duration_log_std,
            "magnitude_log_std": self._magnitude_log_std,
        })
        return pack_state("core.spatiotemporal", payload)

    @classmethod
    @state_guard
    def from_state(cls, state: dict, temporal: TemporalModel,
                   spatial: SpatialModel) -> "SpatiotemporalModel":
        """Rebuild the fitted trees around restored sub-models."""
        state = require_state(state, "core.spatiotemporal")
        model = cls(temporal, spatial,
                    config=SpatiotemporalConfig.from_state(state["config"]))
        for field_name in cls._TREE_FIELDS:
            setattr(model, field_name,
                    decode_optional(ModelTree, state[field_name.lstrip("_")]))
        model._max_day_gap = state["max_day_gap"]
        model._duration_log_std = state["duration_log_std"]
        model._magnitude_log_std = state["magnitude_log_std"]
        return model
