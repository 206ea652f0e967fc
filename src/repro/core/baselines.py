"""Naive baselines of §VII-A.

"One may advocate a simpler approach in which prediction outcomes are
the same as (or the mean of) previous observations" -- the *Always
Same* and *Always Mean* predictors our models are compared against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Protocol, Sequence

import numpy as np

if TYPE_CHECKING:  # avoid a load-time cycle with spatiotemporal
    from repro.core.spatiotemporal import AttackPrediction
    from repro.dataset.records import AttackRecord

__all__ = [
    "NaivePredictor",
    "AlwaysSame",
    "AlwaysMean",
    "BASELINES",
    "resolve_baseline",
    "AttackColumns",
    "naive_attack_forecast",
    "naive_columns_forecast",
]


class NaivePredictor(Protocol):
    """Common interface of the naive predictors."""

    def predict_next(self, window: np.ndarray) -> float:
        """Predict the value following ``window``."""
        ...

    def predict_continuation(self, history: np.ndarray,
                             future: np.ndarray) -> np.ndarray:
        """One-step-ahead predictions over ``future`` given ``history``."""
        ...


class AlwaysSame:
    """Persistence: the next value equals the last observed value."""

    def predict_next(self, window: np.ndarray) -> float:
        """Last observation."""
        window = np.asarray(window, dtype=float).ravel()
        if window.size == 0:
            raise ValueError("empty window")
        return float(window[-1])

    def predict_continuation(self, history: np.ndarray,
                             future: np.ndarray) -> np.ndarray:
        """Each future value is predicted by its predecessor."""
        history = np.asarray(history, dtype=float).ravel()
        future = np.asarray(future, dtype=float).ravel()
        if history.size == 0:
            raise ValueError("empty history")
        full = np.concatenate([history[-1:], future])
        return full[:-1].copy()


class AlwaysMean:
    """The next value equals the mean of all observations so far."""

    def predict_next(self, window: np.ndarray) -> float:
        """Mean of the window."""
        window = np.asarray(window, dtype=float).ravel()
        if window.size == 0:
            raise ValueError("empty window")
        return float(window.mean())

    def predict_continuation(self, history: np.ndarray,
                             future: np.ndarray) -> np.ndarray:
        """Each future value is predicted by the running mean before it."""
        history = np.asarray(history, dtype=float).ravel()
        future = np.asarray(future, dtype=float).ravel()
        if history.size == 0:
            raise ValueError("empty history")
        full = np.concatenate([history, future])
        cumulative = np.cumsum(full)
        counts = np.arange(1, full.size + 1, dtype=float)
        running_mean = cumulative / counts
        return running_mean[history.size - 1 : -1].copy()


BASELINES: dict[str, type] = {"always_same": AlwaysSame, "always_mean": AlwaysMean}


def resolve_baseline(name: str) -> NaivePredictor:
    """Instantiate a baseline by its registry name."""
    try:
        return BASELINES[name]()
    except KeyError:
        raise ValueError(
            f"unknown baseline {name!r}; choose from {sorted(BASELINES)}"
        ) from None


class AttackColumns(NamedTuple):
    """Float64 columns of a chronological attack history.

    The inputs of :func:`naive_columns_forecast`: launch time, launch
    hour of day, duration and magnitude (unique bots), one row per
    attack.  :meth:`head` slices every column to a prefix without
    copying, so one set of columns answers every ``start < now`` cut.
    """

    start: np.ndarray
    hour: np.ndarray
    duration: np.ndarray
    magnitude: np.ndarray

    @classmethod
    def of(cls, history: "Sequence[AttackRecord]") -> "AttackColumns":
        """Columns of ``history``, in its order."""
        from repro.dataset.records import DAY, HOUR

        return cls(
            start=np.array([a.start_time for a in history], dtype=float),
            hour=np.array([a.start_time % DAY / HOUR for a in history], dtype=float),
            duration=np.array([a.duration for a in history], dtype=float),
            magnitude=np.array([a.magnitude for a in history], dtype=float),
        )

    def head(self, k: int) -> "AttackColumns":
        """The first ``k`` rows (views, not copies)."""
        return AttackColumns(*(column[:k] for column in self))


def naive_attack_forecast(history: "Sequence[AttackRecord]",
                          hour_strategy: str = "always_same",
                          scalar_strategy: str = "always_mean") -> "AttackPrediction":
    """§VII-A-style forecast of the next attack from raw history alone.

    This is the degraded-mode answer the serving engine falls back to
    when the fitted models are unavailable (fit failure, timeout, or a
    target below the §VI-B history floor): launch hour by persistence,
    date by the mean inter-launch gap, duration and magnitude by the
    running mean.  ``history`` must be chronological and non-empty.
    """
    return naive_columns_forecast(AttackColumns.of(history),
                                  hour_strategy, scalar_strategy)


def naive_columns_forecast(columns: AttackColumns,
                           hour_strategy: str = "always_same",
                           scalar_strategy: str = "always_mean") -> "AttackPrediction":
    """:func:`naive_attack_forecast` over prebuilt, non-empty columns.

    The one implementation of the §VII-A formula.  Its cost is a few
    C-level reductions over the columns, so a caller holding the
    columns of a long history answers each prefix without touching the
    records again.
    """
    from repro.core.spatiotemporal import AttackPrediction
    from repro.dataset.records import DAY

    if not columns.start.size:
        raise ValueError("need at least one historical attack")
    hour_model = resolve_baseline(hour_strategy)
    scalar_model = resolve_baseline(scalar_strategy)

    hour = float(hour_model.predict_next(columns.hour))
    gaps = np.diff(columns.start)
    day_gap = float(scalar_model.predict_next(gaps)) / DAY if gaps.size else 1.0
    day = float(columns.start[-1]) / DAY + max(0.0, day_gap)
    duration = float(scalar_model.predict_next(columns.duration))
    magnitude = float(scalar_model.predict_next(columns.magnitude))
    return AttackPrediction(
        hour=hour,
        day=day,
        duration=duration,
        magnitude=magnitude,
        temporal_hour=hour,
        spatial_hour=hour,
        temporal_day=day,
        spatial_day=day,
    )
