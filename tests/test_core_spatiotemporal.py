"""Tests for the spatiotemporal model (§VI)."""

import dataclasses
import random
import threading

import numpy as np
import pytest

from repro.core.spatiotemporal import (
    FEATURE_NAMES,
    AttackContext,
    HistoryIndex,
    SpatiotemporalConfig,
    SpatiotemporalModel,
)


@pytest.fixture(scope="module")
def index(fx):
    return HistoryIndex(fx)


class TestHistoryIndex:
    def test_recent_global_strictly_before(self, fx, index):
        t = fx.trace.attacks[200].start_time
        recent, _ = index.recent_global(t, 10)
        assert len(recent) == 10
        assert all(a.start_time < t for a in recent)

    def test_recent_global_matches_slow_path(self, fx, index):
        t = fx.trace.attacks[150].start_time
        fast, _ = index.recent_global(t, 7)
        slow = fx.recent_attacks(t, 7)
        assert [a.ddos_id for a in fast] == [a.ddos_id for a in slow]

    def test_recent_family_filtered(self, fx, index):
        family = fx.families()[0]
        t = fx.trace.attacks[-1].start_time
        recent, _ = index.recent_family(family, t, 5)
        assert all(a.family == family for a in recent)

    def test_recent_same_as_filtered(self, fx, index):
        asn = fx.target_ases()[0]
        t = fx.trace.attacks[-1].start_time
        recent, _ = index.recent_same_as(asn, t, 5)
        assert all(o.target_asn == asn for o in recent)

    def test_empty_before_epoch(self, index):
        assert index.recent_global(0.0, 5) == ([], 0)


class TestConfig:
    def test_defaults_match_paper(self):
        config = SpatiotemporalConfig()
        assert config.n_same_as == 10
        assert config.n_recent == 10
        assert config.keep_sd == 0.88

    def test_validation(self):
        with pytest.raises(ValueError):
            SpatiotemporalConfig(n_same_as=0)
        with pytest.raises(ValueError):
            SpatiotemporalConfig(min_same_as=20, n_same_as=10)


class TestSpatiotemporalModel:
    def test_feature_vector_shape(self, fx, predictor, index):
        attack = predictor.test_attacks[0]
        context = AttackContext.for_attack(attack, index, 10, 10)
        features = predictor.spatiotemporal._features(context)
        assert features.shape == (len(FEATURE_NAMES),)
        assert np.isfinite(features).all()

    def test_prediction_fields_sane(self, predictor):
        pairs = predictor.predict_test_set()
        assert pairs
        for attack, prediction in pairs[:50]:
            assert 0.0 <= prediction.hour < 24.0
            assert prediction.duration > 0
            assert prediction.magnitude > 0
            assert prediction.day >= 0
            assert 0.0 <= prediction.temporal_hour < 24.0
            assert 0.0 <= prediction.spatial_hour < 24.0

    def test_day_prediction_not_in_past(self, predictor, index):
        """The predicted date is never before the last observed
        same-AS attack."""
        config = predictor.spatiotemporal.config
        for attack in predictor.test_attacks[:50]:
            context = AttackContext.for_attack(attack, index,
                                               config.n_same_as, config.n_recent)
            if len(context.same_as) < config.min_same_as:
                continue
            prediction = predictor.spatiotemporal.predict_context(context)
            last_day = context.same_as[-1].start_time / 86400.0
            assert prediction.day >= last_day - 1e-9

    def test_insufficient_history_returns_none(self, fx, predictor, index):
        attack = fx.trace.attacks[0]  # nothing before the first attack
        assert predictor.spatiotemporal.predict_attack(attack, index) is None

    def test_unfitted_predict_raises(self, predictor, fx, index):
        model = SpatiotemporalModel(predictor.temporal, predictor.spatial)
        context = AttackContext.for_attack(fx.trace.attacks[-1], index, 10, 10)
        with pytest.raises(RuntimeError):
            model.predict_context(context)

    def test_fit_rejects_empty_history(self, fx, predictor, index):
        model = SpatiotemporalModel(predictor.temporal, predictor.spatial)
        with pytest.raises(ValueError):
            model.fit(fx, fx.trace.attacks[:3], index=index)

    def test_beats_components_on_hour(self, predictor):
        """The §VI headline: the combination outperforms (or at least
        matches) both components on hour RMSE."""
        from repro.evaluation.metrics import circular_hour_error

        pairs = predictor.predict_test_set()
        actual = np.array([a.start_time % 86400.0 / 3600.0 for a, _ in pairs])

        def rmse(values):
            return float(np.sqrt(np.mean(circular_hour_error(actual, values) ** 2)))

        st = rmse(np.array([p.hour for _, p in pairs]))
        tmp = rmse(np.array([p.temporal_hour for _, p in pairs]))
        spa = rmse(np.array([p.spatial_hour for _, p in pairs]))
        assert st <= tmp * 1.05
        assert st <= spa * 1.05

    def test_feature_names_exported(self, predictor):
        assert predictor.spatiotemporal.feature_names == FEATURE_NAMES


# ----- the history-block memo -----

PREDICTION_FIELDS = ("hour", "day", "duration", "magnitude", "temporal_hour",
                     "spatial_hour", "temporal_day", "spatial_day")


def hexed(prediction):
    """Every field and feature of a prediction, bit-exact."""
    return ([float(getattr(prediction, name)).hex() for name in PREDICTION_FIELDS]
            + [float(x).hex() for x in prediction.features])


def memo_free(model, context):
    """The same fitted model's answer, computed without the memo."""
    return model.predict_context(dataclasses.replace(
        context, history=None, same_as_end=None, recent_end=None, family_end=None))


def seeded_sweep(trace, count, seed):
    """``(asn, family, now)`` keys over the whole trace, seeded."""
    rng = random.Random(seed)
    end = trace.n_hours * 3600.0
    families = sorted({a.family for a in trace.attacks})
    return [(rng.choice(trace.attacks).target_asn, rng.choice(families),
             rng.uniform(0.0, end)) for _ in range(count)]


def observed(predictor, asn, family, now):
    cfg = predictor.spatiotemporal.config
    return AttackContext.observe(predictor.index, family, asn, now,
                                 cfg.n_same_as, cfg.n_recent)


def assert_matches_memo_free(predictor, keys):
    """Served answers equal the memo-free recompute by float.hex."""
    cfg = predictor.spatiotemporal.config
    answered = 0
    for asn, family, now in keys:
        context = observed(predictor, asn, family, now)
        served = predictor.predict_next_for_network(asn, family, now)
        if served is None:
            assert len(context.same_as) < cfg.min_same_as
            continue
        assert hexed(served) == hexed(memo_free(predictor.spatiotemporal, context))
        answered += 1
    assert answered > len(keys) // 4


def memo_of(predictor):
    return predictor.spatiotemporal._memo[1]


@pytest.fixture()
def restored(predictor, small_trace, small_env):
    """A fresh copy of the session predictor, memo empty."""
    from repro.core import AttackPredictor

    return AttackPredictor.from_state(predictor.get_state(), small_trace, small_env)


class TestHistoryPositions:
    def test_end_is_the_bisection_position(self, fx, index):
        t = fx.trace.attacks[200].start_time
        recent, end = index.recent_global(t, 10)
        assert recent == index.recent_global(t, end)[0][-10:]
        assert index.recent_global(recent[-1].start_time + 1e-6, 10)[1] == end

    def test_observe_carries_positions(self, predictor):
        attack = predictor.test_attacks[0]
        context = AttackContext.for_attack(attack, predictor.index, 10, 10)
        assert context.history is predictor.index
        assert context.same_as == predictor.index.recent_same_as(
            attack.target_asn, attack.start_time, 10)[0]
        assert (context.same_as_end, context.recent_end, context.family_end) == (
            predictor.index.recent_same_as(attack.target_asn, attack.start_time, 10)[1],
            predictor.index.recent_global(attack.start_time, 10)[1],
            predictor.index.recent_family(attack.family, attack.start_time, 10)[1],
        )


class TestEmptyPrefixes:
    """An empty prefix falls back to the query's clock: never memoized."""

    @staticmethod
    def shared_as_prefix(predictor, before):
        """An AS with history whose prefix is the same at both times."""
        for asn in predictor.fx.target_ases():
            ends = {observed(predictor, asn, "x", t).same_as_end for t in before}
            if len(ends) == 1 and ends.pop() >= 1:
                return asn
        pytest.skip("no AS keeps one prefix across both times")

    def assert_clock_dependent(self, predictor, family, now_a, now_b):
        asn = self.shared_as_prefix(predictor, (now_a, now_b))
        model = predictor.spatiotemporal
        a = model.predict_context(observed(predictor, asn, family, now_a))
        b = model.predict_context(observed(predictor, asn, family, now_b))
        assert a.temporal_day != b.temporal_day
        assert a.temporal_day == (now_a + np.expm1(a.features[2])) / 86400.0
        assert b.temporal_day == (now_b + np.expm1(b.features[2])) / 86400.0
        # the AS block was memoized (same prefix), the family block not
        assert [k for k in memo_of(predictor) if k[0] == ("asn", asn)]
        assert not [k for k in memo_of(predictor) if k[0] == ("family", family)]

    def test_family_absent_from_trace(self, restored, small_trace):
        end = small_trace.n_hours * 3600.0
        self.assert_clock_dependent(restored, "NoSuchFamily", end - 1.0, end - 2.0)

    def test_now_before_the_family_first_attack(self, restored):
        family = restored.fx.families()[-1]
        first = restored.fx.family_attacks(family)[0].start_time
        assert observed(restored, 0, family, first).family_recent == []
        self.assert_clock_dependent(restored, family, first, first - 1.0)


class TestMemoBitIdentity:
    """The memoized answers equal a memo-free recompute, bit for bit."""

    def test_held_out_test_split(self, restored):
        model = restored.spatiotemporal
        cfg = model.config
        for attempt in ("cold", "warm"):
            pairs = restored.predict_test_set()
            assert pairs
            for attack, served in pairs:
                context = AttackContext.for_attack(attack, restored.index,
                                                   cfg.n_same_as, cfg.n_recent)
                assert hexed(served) == hexed(memo_free(model, context)), attempt

    def test_seeded_sweep_cold_then_warm_reversed(self, restored, small_trace):
        assert memo_of(restored) == {}
        keys = seeded_sweep(small_trace, 400, seed=16)
        assert_matches_memo_free(restored, keys)
        filled = len(memo_of(restored))
        assert filled > 0
        assert_matches_memo_free(restored, keys[::-1])
        assert len(memo_of(restored)) == filled  # the warm pass only read

    def test_other_window_lengths_are_other_prefixes(self, restored):
        model = restored.spatiotemporal
        for n in (10, 4, 10):
            for attack in restored.test_attacks[:60]:
                context = AttackContext.for_attack(attack, restored.index, n, n)
                assert hexed(model.predict_context(context)) == hexed(
                    memo_free(model, context))

    def test_after_registry_refresh_on_extended_trace(
            self, predictor, small_trace, small_env):
        from repro.core import AttackPredictor
        from repro.ingest.refresher import extend_trace
        from repro.serving.registry import ModelRegistry

        next_id = max(a.ddos_id for a in small_trace.attacks) + 1
        extra = [dataclasses.replace(a, ddos_id=next_id + i,
                                     start_time=a.start_time + 86400.0)
                 for i, a in enumerate(small_trace.attacks[-40:])]
        extended = extend_trace(small_trace, extra, [])

        def factory(trace, env, config, warm_from=None):
            if trace is small_trace:
                return predictor
            return AttackPredictor(trace, env, config=config).fit(warm_from=warm_from)

        registry = ModelRegistry(factory=factory)
        registry.get(small_trace, small_env)
        refreshed = registry.refresh(extended, small_env).predictor
        assert refreshed is not predictor
        assert refreshed.spatiotemporal._memo[0] is refreshed.index
        assert_matches_memo_free(refreshed, seeded_sweep(extended, 200, seed=17))


class TestMemoLifecycle:
    def test_size_bound_after_full_sweep(self, restored, small_trace):
        cfg = restored.spatiotemporal.config
        for attack in small_trace.attacks[::5]:
            for family in restored.fx.families():
                restored.spatiotemporal.predict_context(
                    observed(restored, attack.target_asn, family, attack.start_time))
        memo = memo_of(restored)
        n_attacks = len(small_trace.attacks)
        bound = (3 * n_attacks + len(restored.fx.families())
                 + len(restored.fx.target_ases()))
        assert 0 < len(memo) <= bound
        # one entry per (group, end position), each for a non-empty prefix
        assert len({(group, end) for group, _, end in memo}) == len(memo)
        longest = max(cfg.n_same_as, cfg.n_recent)
        assert all(1 <= n <= min(end, longest) for _, n, end in memo)

    def test_fit_clears_the_memo(self, predictor, fx, index):
        model = SpatiotemporalModel(predictor.temporal, predictor.spatial)
        model._memo_for(index)[("stale", 1, 1)] = (0.0,)
        model.fit(fx, predictor.train_attacks, index=index)
        bound, memo = model._memo
        assert ("stale", 1, 1) not in memo
        assert bound is index

    def test_restores_start_empty(self, predictor, restored, tmp_path,
                                  small_trace, small_env):
        from repro.serving.registry import ModelRegistry

        predictor.predict_next_for_network(*seeded_sweep(small_trace, 1, seed=3)[0])
        assert memo_of(predictor)
        assert memo_of(restored) == {}
        source = ModelRegistry(factory=lambda trace, env, config: predictor)
        source.get(small_trace, small_env)
        source.save(tmp_path / "store")
        (loaded,) = ModelRegistry().load(tmp_path / "store", small_trace, small_env)
        assert loaded.predictor is not predictor
        assert memo_of(loaded.predictor) == {}

    def test_another_index_is_not_answered_from_old_entries(
            self, restored, small_trace, small_env):
        from repro.dataset.records import AttackTrace
        from repro.features import FeatureExtractor

        keys = seeded_sweep(small_trace, 200, seed=18)
        assert_matches_memo_free(restored, keys)
        old_memo = dict(memo_of(restored))
        thinned = AttackTrace(attacks=small_trace.attacks[::2],
                              snapshots=small_trace.snapshots,
                              metadata=small_trace.metadata)
        other = HistoryIndex(FeatureExtractor(thinned, small_env))
        model = restored.spatiotemporal
        cfg = model.config
        contexts = [AttackContext.observe(other, family, asn, now,
                                          cfg.n_same_as, cfg.n_recent)
                    for asn, family, now in keys]
        contexts = [c for c in contexts if len(c.same_as) >= cfg.min_same_as]
        # keys the old index filled recur for other prefixes of the new one
        assert any((("asn", c.target_asn), len(c.same_as), c.same_as_end)
                   in old_memo for c in contexts)
        for context in contexts:
            assert hexed(model.predict_context(context)) == hexed(
                memo_free(model, context))
        assert model._memo[0] is other
        assert not set(memo_of(restored)) - {
            key for c in contexts for key in (
                (("family", c.family), len(c.family_recent), c.family_end),
                (("asn", c.target_asn), len(c.same_as), c.same_as_end),
                ("recent", len(c.recent), c.recent_end))}

    def test_threads_on_overlapping_keys_match_single_threaded(
            self, predictor, restored, small_trace):
        keys = seeded_sweep(small_trace, 150, seed=19)
        expected = {key: predictor.predict_next_for_network(*key) for key in keys}
        expected = {key: hexed(p) for key, p in expected.items() if p is not None}
        start = threading.Barrier(4)
        results: list[dict] = [{} for _ in range(4)]

        def hammer(slot):
            order = list(expected)
            random.Random(slot).shuffle(order)
            start.wait()
            for key in order * 2:
                results[slot][key] = hexed(restored.predict_next_for_network(*key))

        threads = [threading.Thread(target=hammer, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(result == expected for result in results)
