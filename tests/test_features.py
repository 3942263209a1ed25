"""Trace summarization and the feature registry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restartlab.features import (
    REGISTRY,
    STAT_NAMES,
    FeatureSpec,
    default_registry,
    normalize_for_multi,
    registry_hash,
    summarize,
    summary_columns,
)
from restartlab.latin import HoleSpec, UNBALANCED, generate_complete, poke_holes
from restartlab.solver import ALLDIFF_REGIN, SolverConfig, solve

from reference import population_variance

TWO = (
    FeatureSpec("a", True, "scaled toy"),
    FeatureSpec("b", False, "unscaled toy"),
)

TRACE = [[0, 5], [2, 3], [1, 4], [1, 7]]


def named(sv, registry=TWO):
    """A summary's values keyed by column name."""
    return dict(zip(summary_columns(registry), sv.values.tolist()))


class TestRegistry:
    def test_counts(self):
        assert len(REGISTRY) == 14
        assert len(STAT_NAMES) == 9
        assert len(summary_columns()) == 126

    def test_column_naming(self):
        cols = summary_columns()
        assert cols[0] == f"{REGISTRY[0].name}__init"
        assert all("__" in c for c in cols)
        # feature-major: the first 9 columns belong to the first feature
        assert {c.split("__")[0] for c in cols[:9]} == {REGISTRY[0].name}

    def test_hash_stable_and_distinct(self):
        assert registry_hash() == registry_hash(default_registry(True))
        assert registry_hash() != registry_hash(TWO)

    def test_split_line_variance_refused(self):
        assert default_registry() is REGISTRY
        with pytest.raises(ValueError):
            default_registry(False)


class TestSummarize:
    def test_hand_computed_stats(self):
        sv = summarize(TRACE, horizon=10, registry=TWO)
        v = named(sv)
        assert v["a__init"] == 0 and v["a__final"] == 1
        assert v["a__avg"] == 1.0
        assert v["a__min"] == 0 and v["a__max"] == 2
        assert math.isclose(v["a__d_avg"], 1 / 3)
        assert v["a__d_min"] == -1 and v["a__d_max"] == 2
        assert v["a__d_signchg"] == 1
        assert v["b__init"] == 5 and v["b__final"] == 7
        assert v["b__avg"] == 4.75
        assert v["b__min"] == 3 and v["b__max"] == 7
        assert math.isclose(v["b__d_avg"], 2 / 3)
        assert v["b__d_min"] == -2 and v["b__d_max"] == 3
        assert v["b__d_signchg"] == 1
        assert sv.divisor == 1.0 and not sv.censored

    def test_horizon_truncates(self):
        v = named(summarize(TRACE, horizon=3, registry=TWO))
        assert v["a__final"] == 1
        assert v["a__avg"] == 1.0
        assert math.isclose(v["a__d_avg"], 0.5)
        assert v["a__d_min"] == -1 and v["a__d_max"] == 2

    def test_prefix_stability(self):
        # models must not see anything past the horizon
        longer = TRACE + [[99, 99], [5, 5]]
        assert np.array_equal(
            summarize(TRACE[:3], horizon=3, registry=TWO).values,
            summarize(longer, horizon=3, registry=TWO).values,
        )

    def test_sign_change_zero_breaks_run(self):
        # diffs 1,0,-1: the zero separates the signs, no strict alternation
        trace = [[0], [1], [1], [0]]
        reg = (FeatureSpec("x", False, ""),)
        assert named(summarize(trace, 10, registry=reg), reg)["x__d_signchg"] == 0
        trace2 = [[0], [1], [0], [1]]
        assert named(summarize(trace2, 10, registry=reg), reg)["x__d_signchg"] == 2

    def test_short_trace_rejected(self):
        with pytest.raises(ValueError):
            summarize([[1, 2]], horizon=5, registry=TWO)
        with pytest.raises(ValueError):
            summarize([], horizon=5, registry=TWO)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            summarize(TRACE, horizon=1, registry=TWO)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            summarize([[1], [2]], horizon=5, registry=TWO)

    def test_censored_flag_carried(self):
        assert summarize(TRACE, 10, registry=TWO, censored=True).censored

    def test_keys_match_columns(self):
        sv = summarize(TRACE, 10, registry=TWO)
        assert sv.values.shape == (len(summary_columns(TWO)),)
        assert sv.values.dtype == float
        # feature-major, stats in STAT_NAMES order
        assert sv.values[:3].tolist() == [0.0, 1.0, 1.0]
        assert sv.values[9:11].tolist() == [5.0, 7.0]


class TestNormalizeForMulti:
    def test_scaled_feature_divided(self):
        sv = summarize(TRACE, 10, registry=TWO)
        out = normalize_for_multi(sv, 4, registry=TWO)
        assert out.divisor == 4.0
        v, w = named(sv), named(out)
        for stat in STAT_NAMES[:-1]:
            assert w[f"a__{stat}"] == v[f"a__{stat}"] / 4

    def test_sign_changes_untouched(self):
        sv = summarize(TRACE, 10, registry=TWO)
        out = normalize_for_multi(sv, 4, registry=TWO)
        assert named(out)["a__d_signchg"] == named(sv)["a__d_signchg"]

    def test_unscaled_feature_untouched(self):
        sv = summarize(TRACE, 10, registry=TWO)
        out = normalize_for_multi(sv, 4, registry=TWO)
        for stat in STAT_NAMES:
            assert named(out)[f"b__{stat}"] == named(sv)[f"b__{stat}"]

    def test_rejects_bad_size(self):
        sv = summarize(TRACE, 10, registry=TWO)
        with pytest.raises(ValueError):
            normalize_for_multi(sv, 0, registry=TWO)

    def test_original_not_mutated(self):
        sv = summarize(TRACE, 10, registry=TWO)
        before = sv.values.copy()
        normalize_for_multi(sv, 4, registry=TWO)
        assert np.array_equal(sv.values, before)


class TestLiveTraces:
    def test_trace_width_matches_registry(self):
        sq = generate_complete(9, seed=2)
        inst = poke_holes(sq, HoleSpec(mode=UNBALANCED, total_holes=55), seed=3)
        cfg = SolverConfig(trace_enabled=True, horizon=30, propagation=ALLDIFF_REGIN)
        rec = solve(inst, cfg, seed=1)
        assert rec.trace
        assert all(len(row) == len(REGISTRY) for row in rec.trace)

    def test_trace_values_sane(self):
        sq = generate_complete(9, seed=2)
        inst = poke_holes(sq, HoleSpec(mode=UNBALANCED, total_holes=55), seed=3)
        cfg = SolverConfig(trace_enabled=True, horizon=40, propagation=ALLDIFF_REGIN)
        rec = solve(inst, cfg, seed=1)
        names = [s.name for s in REGISTRY]
        arr = np.asarray(rec.trace)
        col = {n: arr[:, i] for i, n in enumerate(names)}
        n_open0 = col["open_cells"][0]
        assert 0 < n_open0 <= 55
        assert (col["open_cells"] >= 0).all()
        assert (col["min_domain"] >= 1).all()
        assert (col["avg_domain"] >= col["min_domain"]).all()
        assert (col["max_depth"] >= col["depth"]).all()
        assert (col["open_per_line"] == col["open_cells"] / 9).all()
        # cumulative counters never decrease
        for name in ("backtracks", "max_depth", "forced_assignments",
                     "contradictions", "alldiff_prunings"):
            assert (np.diff(col[name]) >= 0).all()

    def test_forward_check_has_no_prunings_counter_growth(self):
        from restartlab.solver import FORWARD_CHECK

        sq = generate_complete(9, seed=4)
        inst = poke_holes(sq, HoleSpec(mode=UNBALANCED, total_holes=50), seed=5)
        cfg = SolverConfig(
            trace_enabled=True, horizon=40, propagation=FORWARD_CHECK
        )
        rec = solve(inst, cfg, seed=2)
        idx = [s.name for s in REGISTRY].index("alldiff_prunings")
        assert all(row[idx] == 0 for row in rec.trace)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.floats(-50, 50, allow_nan=False), st.floats(-50, 50, allow_nan=False)
        ),
        min_size=2,
        max_size=12,
    ),
    horizon=st.integers(2, 15),
)
def test_summarize_matches_numpy_oracle(rows, horizon):
    sv = named(summarize(rows, horizon, registry=TWO))
    arr = np.asarray(rows[: min(horizon, len(rows))], dtype=float)
    for j, name in enumerate(("a", "b")):
        series = arr[:, j]
        diffs = np.diff(series)
        assert sv[f"{name}__init"] == series[0]
        assert sv[f"{name}__final"] == series[-1]
        assert math.isclose(sv[f"{name}__avg"], series.mean(), abs_tol=1e-12)
        assert sv[f"{name}__min"] == series.min()
        assert sv[f"{name}__max"] == series.max()
        assert math.isclose(sv[f"{name}__d_avg"], diffs.mean(), abs_tol=1e-12)
        signs = np.sign(diffs)
        changes = int(((signs[1:] * signs[:-1]) < 0).sum())
        assert sv[f"{name}__d_signchg"] == changes


def _left_to_right_variance(xs):
    """Population variance with the squared deviations added one by one,
    from 0.0, in list order (what Python 3.11's sum() did)."""
    mean = sum(xs) / len(xs)
    total = 0.0
    for x in xs:
        total = total + (x - mean) ** 2
    return total / len(xs)


class TestPopulationVariance:
    @settings(max_examples=300, deadline=None)
    @given(xs=st.lists(st.integers(0, 64), min_size=1, max_size=128))
    def test_adds_left_to_right(self, xs):
        assert population_variance(xs) == _left_to_right_variance(xs)

    def test_not_compensated(self):
        # Python 3.12's sum() of these squares rounds to 7.052469135802469
        xs = [6, 0, 4, 8, 7, 6, 4, 7, 5, 9, 3, 8, 2, 4, 2, 1, 9, 4]
        mean = sum(xs) / len(xs)
        assert math.fsum((x - mean) ** 2 for x in xs) / len(xs) == 7.052469135802469
        assert population_variance(xs) == 7.05246913580247

    def test_empty_is_zero(self):
        assert population_variance([]) == 0.0
