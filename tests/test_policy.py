"""Restart-policy analysis: exact formulas, scans, and simulation."""

import contextlib
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from reference import luby_term
from restartlab import fc_kernel
from restartlab import policy as policy_module
from restartlab.cli import EXIT_KERNEL, main
from restartlab.io import write_rtd
from restartlab.learn import (
    Dataset,
    DecisionTreeModel,
    TreeNode,
    label_by_median,
    marginal_model,
)
from restartlab.policy import (
    MAX_LENGTH,
    DatasetSource,
    DynamicPolicy,
    EmpiricalRTD,
    FixedPolicy,
    LubyPolicy,
    ModelPredictor,
    SyntheticPredictor,
    _price_rounds,
    dynamic_expected_run_length_ub,
    dynamic_expected_runs,
    dynamic_expected_total_ub,
    expected_time_fixed,
    is_unbounded,
    optimal_fixed_cutoff,
    scan_dynamic_limits,
    simulate_policy,
)
from restartlab.seeds import derive_seed

TWO_POINT = EmpiricalRTD([1, 10**6])


class TestEmpiricalRTD:
    def test_sorted_and_stats(self):
        rtd = EmpiricalRTD([9, 2, 5, 5])
        assert rtd.lengths.tolist() == [2, 5, 5, 9]
        assert rtd.size == 4
        assert rtd.min_length == 2
        assert int(rtd.lengths[-1]) == 9

    def test_cdf_steps(self):
        rtd = EmpiricalRTD([2, 5, 5, 9])
        assert rtd.cdf(1) == 0.0
        assert rtd.cdf(2) == 0.25
        assert rtd.cdf(4.9) == 0.25
        assert rtd.cdf(5) == 0.75
        assert rtd.cdf(9) == 1.0
        assert rtd.cdf(10**9) == 1.0

    def test_expected_truncated(self):
        rtd = EmpiricalRTD([2, 5, 5, 9])
        assert rtd.expected_truncated(4) == (2 + 4 + 4 + 4) / 4
        assert rtd.expected_truncated(5) == (2 + 5 + 5 + 5) / 4
        assert rtd.expected_truncated(100) == (2 + 5 + 5 + 9) / 4

    def test_zero_lengths_allowed(self):
        rtd = EmpiricalRTD([0, 0, 5])
        assert rtd.min_length == 0
        assert rtd.cdf(0) == 2 / 3

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            EmpiricalRTD([])
        with pytest.raises(ValueError):
            EmpiricalRTD([3, -1])

    def test_lengths_past_float_exactness_rejected(self):
        assert int(EmpiricalRTD([1, MAX_LENGTH]).lengths[-1]) == 2**53
        for bad in (MAX_LENGTH + 1, 10**20, -(10**20)):
            with pytest.raises(ValueError):
                EmpiricalRTD([5, bad])

    def test_lengths_whose_sum_wraps_int64_rejected(self):
        # 1100 * 2**53 passes 2**63, where an int64 cumsum wraps negative
        with pytest.raises(ValueError, match="sum"):
            EmpiricalRTD([MAX_LENGTH] * 1100)
        assert EmpiricalRTD([MAX_LENGTH] * 1023).expected_truncated(MAX_LENGTH) == MAX_LENGTH


class TestExpectedTimeFixed:
    def test_two_point_exact(self):
        assert expected_time_fixed(TWO_POINT, 1) == 2.0
        assert expected_time_fixed(TWO_POINT, 10**6) == 500000.5
        assert expected_time_fixed(TWO_POINT, 10**30) == 500000.5  # past int64

    def test_unbounded_below_support(self):
        rtd = EmpiricalRTD([5, 7])
        assert is_unbounded(expected_time_fixed(rtd, 4))

    def test_bad_cutoff(self):
        with pytest.raises(ValueError):
            expected_time_fixed(TWO_POINT, 0)

    def test_renewal_identity(self):
        # E = E[min(T,c)] + (1 - P(T<=c)) * E  must hold at any c
        rtd = EmpiricalRTD([3, 8, 8, 20, 500])
        for c in [3, 8, 10, 20, 499, 500]:
            e = expected_time_fixed(rtd, c)
            p = rtd.cdf(c)
            assert math.isclose(e, rtd.expected_truncated(c) + (1 - p) * e)

    def test_monte_carlo_agreement(self):
        rtd = EmpiricalRTD([2, 2, 7, 40])
        cutoff = 7
        want = expected_time_fixed(rtd, cutoff)
        rng = np.random.default_rng(0)
        trials = 40000
        total = np.zeros(trials)
        active = np.arange(trials)
        while active.size:
            draws = rtd.lengths[rng.integers(0, rtd.size, active.size)]
            total[active] += np.minimum(draws, cutoff)
            active = active[draws > cutoff]
        se = total.std(ddof=1) / math.sqrt(trials)
        assert abs(total.mean() - want) < 3 * se


class TestOptimalFixedCutoff:
    def test_two_point(self):
        assert optimal_fixed_cutoff(TWO_POINT) == (1, 2.0)

    def test_degenerate_single_length(self):
        assert optimal_fixed_cutoff(EmpiricalRTD([7, 7])) == (7, 7.0)

    def test_zeros_clamp_to_one(self):
        c, cost = optimal_fixed_cutoff(EmpiricalRTD([0, 0, 5]))
        assert c == 1
        assert math.isclose(cost, (1 / 3) / (2 / 3))

    def test_ties_take_smallest(self):
        c, cost = optimal_fixed_cutoff(EmpiricalRTD([2, 4]))
        assert (c, cost) == (4, 3.0)

    def brute_force(self, rtd):
        best = None
        for c in range(1, int(rtd.lengths[-1]) + 1):
            e = expected_time_fixed(rtd, c)
            if best is None or e < best[1]:
                best = (c, e)
        return best

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = rng.integers(1, 40)
            lengths = rng.integers(0, 200, size=n)
            rtd = EmpiricalRTD(lengths)
            got_c, got_cost = optimal_fixed_cutoff(rtd)
            want_c, want_cost = self.brute_force(rtd)
            assert math.isclose(got_cost, want_cost, rel_tol=1e-12)
            assert got_c == want_c

    def test_uniform_1_to_100(self):
        rtd = EmpiricalRTD(list(range(1, 101)))
        got = optimal_fixed_cutoff(rtd)
        want = self.brute_force(rtd)
        assert got[0] == want[0]
        assert math.isclose(got[1], want[1])


class TestLuby:
    def test_first_fifteen(self):
        want = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
        assert [luby_term(i) for i in range(1, 16)] == want

    def test_powers_at_full_blocks(self):
        for k in range(1, 16):
            assert luby_term((1 << k) - 1) == 1 << (k - 1)

    def test_all_terms_are_powers_of_two(self):
        for i in range(1, 200):
            t = luby_term(i)
            assert t & (t - 1) == 0

    def test_index_validated(self):
        with pytest.raises(ValueError):
            luby_term(0)


class TestDynamicFormulas:
    def test_perfect_predictor_sees_everything(self):
        assert dynamic_expected_runs(1.0, 0.0, 1.0) == 1.0

    def test_hand_value(self):
        got = dynamic_expected_runs(0.9, 0.01, 0.46)
        assert math.isclose(got, 1.0 / (0.9 * 0.45 + 0.01))

    def test_zero_denominator_unbounded(self):
        assert is_unbounded(dynamic_expected_runs(0.0, 0.0, 1.0))
        assert is_unbounded(dynamic_expected_runs(0.5, 0.0, 0.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            dynamic_expected_runs(1.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            dynamic_expected_runs(0.9, 0.5, 0.4)  # limit before observe

    def test_run_length_bound_hand_value(self):
        got = dynamic_expected_run_length_ub(500, 5000, 0.9, 0.46)
        cont = 0.9 * 0.46 + 0.1 * 0.54
        assert math.isclose(got, 500 + 4500 * cont)

    def test_run_length_bound_infinite_limit(self):
        assert is_unbounded(dynamic_expected_run_length_ub(5, math.inf, 0.9, 0.5))
        # continuing never happens: all mass restarts at the observation point
        assert dynamic_expected_run_length_ub(5, math.inf, 0.0, 1.0) == 5.0

    def test_run_length_bound_validation(self):
        with pytest.raises(ValueError):
            dynamic_expected_run_length_ub(10, 10, 0.9, 0.5)

    def test_total_bound_is_product(self):
        runs = dynamic_expected_runs(0.8, 0.1, 0.6)
        per = dynamic_expected_run_length_ub(100, 1000, 0.8, 0.6)
        got = dynamic_expected_total_ub(100, 1000, 0.8, 0.1, 0.6)
        assert math.isclose(got, runs * per)

    def test_total_bound_unbounded_propagates(self):
        assert is_unbounded(dynamic_expected_total_ub(1, 2, 0.0, 0.0, 0.0))


class TestScanDynamicLimits:
    def test_entries_match_formulas(self):
        rtd = EmpiricalRTD(list(range(1, 101)))
        out = scan_dynamic_limits(rtd, observe=10, accuracy=0.9)
        assert out
        p_obs = rtd.cdf(10)
        for e in out:
            assert e["limit"] > 10
            p_lim = rtd.cdf(e["limit"])
            assert e["expected_runs"] == dynamic_expected_runs(0.9, p_obs, p_lim)
            assert e["expected_total_ub"] == dynamic_expected_total_ub(
                10, e["limit"], 0.9, p_obs, p_lim)

    def test_sorted_by_bound(self):
        rtd = EmpiricalRTD(list(range(1, 101)))
        out = scan_dynamic_limits(rtd, observe=5, accuracy=0.8)
        bounds = [e["expected_total_ub"] for e in out]
        assert bounds == sorted(bounds)

    def test_observe_validated(self):
        with pytest.raises(ValueError):
            scan_dynamic_limits(TWO_POINT, observe=0, accuracy=0.9)


class TestPolicyObjects:
    def test_fixed_validation_and_describe(self):
        assert FixedPolicy(5).describe() == "fixed:5"
        with pytest.raises(ValueError):
            FixedPolicy(0)

    def test_luby_validation_and_describe(self):
        assert LubyPolicy(16).describe() == "luby:16"
        with pytest.raises(ValueError):
            LubyPolicy(0)

    def test_dynamic_validation_and_describe(self):
        p = DynamicPolicy(observe=3, limit=9, predictor=SyntheticPredictor(0.9))
        assert p.describe() == "dynamic:O=3,L=9,oracle(accuracy=0.9)"
        oracle = SyntheticPredictor(1.0)
        inf = DynamicPolicy(observe=3, limit=math.inf, predictor=oracle)
        assert "L=inf" in inf.describe()
        with pytest.raises(ValueError):
            DynamicPolicy(observe=0, limit=5, predictor=oracle)
        with pytest.raises(ValueError):
            DynamicPolicy(observe=5, limit=5, predictor=oracle)

    def test_dynamic_policy_needs_a_predictor(self):
        # refused where it is built, not partway through a simulation
        with pytest.raises(TypeError, match="predictor"):
            DynamicPolicy(2, 5)

    def test_synthetic_predictor_extremes(self):
        # observe 2, limit 5 on lengths 1, 3, 10, 50: a run of 1 wins early;
        # accuracy 1 calls 3 SHORT (it wins) and 10, 50 LONG (cut at 2);
        # accuracy 0 calls 3 LONG (cut at 2) and 10, 50 SHORT (cut at 5)
        source = EmpiricalRTD([1, 10, 3, 50])
        for accuracy in (1.0, 0.0):
            policy = DynamicPolicy(2, 5, SyntheticPredictor(accuracy))
            cost, runs = np.zeros(400), np.zeros(400, dtype=np.int64)
            state = _price_rounds(source, policy, fc_kernel.pcg64(0), cost, runs, 10**6)
            assert state.n_active == 0 and runs.max() > 1
            lost = runs - 1
            if accuracy:
                assert set((cost - 2 * lost).tolist()) == {1.0, 3.0}
            else:
                extra = cost - 1 - 2 * lost  # 3 for each run cut at 5
                assert (extra % 3 == 0).all() and (extra <= 3 * lost).all() and extra.max() > 0
        with pytest.raises(ValueError):
            SyntheticPredictor(1.5)

    def test_model_predictor_needs_features(self):
        model = marginal_model(np.array([True] * 5))
        pred = ModelPredictor(model)
        policy = DynamicPolicy(observe=1, limit=10, predictor=pred)
        with pytest.raises(ValueError, match="no features"):
            simulate_policy(EmpiricalRTD([1, 2]), policy, 10, master_seed=0)
        rows = pred._rounds(DatasetSource(tiny_dataset([1, 2], n_features=0)))["short_rows"]
        assert rows.tolist() == [1, 1]  # counts (5,0) predict SHORT

    def test_model_predictor_calls_each_row_once(self, monkeypatch):
        ds = tiny_dataset([10, 20, 30])
        ds.X[:, 0] = [1.0, 2.0, 3.0]
        model = DecisionTreeModel(
            root=TreeNode(4, 4, feature=0, threshold=2.5,
                          left=TreeNode(3, 0), right=TreeNode(0, 3)),
            columns=ds.columns, kappa=1.0,
        )
        source = DatasetSource(ds)
        want = asdict(reference.simulate(source, DynamicPolicy(5, 100, ModelPredictor(model)), 50, 4))
        policy = DynamicPolicy(5, 100, ModelPredictor(model))
        calls = []
        real = policy_module._learn.predict_batch
        monkeypatch.setattr(policy_module._learn, "predict_batch",
                            lambda m, X: calls.append(len(X)) or real(m, X))
        for _ in range(3):
            assert asdict(simulate_policy(source, policy, 50, 4)) == want
        assert calls == [3]


def tiny_dataset(runtimes, n_features=2):
    runtimes = np.asarray(runtimes, dtype=np.int64)
    n = runtimes.size
    median, labels = label_by_median(runtimes)
    return Dataset(
        columns=[f"f{j}" for j in range(n_features)],
        X=np.zeros((n, n_features)),
        runtime=runtimes,
        is_short=labels,
        censored=np.zeros(n, dtype=bool),
        divisor=np.ones(n),
        median=median,
    )


class TestRunSources:
    def test_rtd_source_resamples_support(self):
        src = EmpiricalRTD([9, 4])
        assert src.lengths.tolist() == [4, 9]
        cost, runs = np.zeros(100), np.zeros(100, dtype=np.int64)
        _price_rounds(src, FixedPolicy(9), fc_kernel.pcg64(1), cost, runs, 10)
        assert set(cost.tolist()) == {4.0, 9.0} and (runs == 1).all()

    def test_dataset_source_aligned_rows(self):
        # rows in file order, not sorted: only row 2 (length 20) is called
        # SHORT, so every trial ends on a run of 20 after runs cut at 5
        ds = tiny_dataset([30, 10, 20])
        ds.X[:, 0] = [1.0, 2.0, 3.0]
        model = DecisionTreeModel(
            root=TreeNode(4, 4, feature=0, threshold=2.5,
                          left=TreeNode(0, 3), right=TreeNode(3, 0)),
            columns=ds.columns, kappa=1.0,
        )
        src = DatasetSource(ds)
        assert src.lengths.tolist() == [30, 10, 20]
        assert src.sorted.tolist() == [10, 20, 30]
        cost, runs = np.zeros(200), np.zeros(200, dtype=np.int64)
        policy = DynamicPolicy(5, 100, ModelPredictor(model))
        _price_rounds(src, policy, fc_kernel.pcg64(2), cost, runs, 10**6)
        assert (cost == 5 * (runs - 1) + 20).all() and runs.max() > 1


class TestSimulatePolicy:
    def test_fixed_two_point_matches_exact(self):
        stats = simulate_policy(
            TWO_POINT, FixedPolicy(1), trials=4000, master_seed=0
        )
        assert stats.expected_steps == 2.0
        assert abs(stats.mc_mean_cost - 2.0) < 3 * stats.mc_se_cost + 1e-9
        assert abs(stats.mc_mean_runs - 2.0) < 3 * stats.mc_se_runs + 1e-9
        assert not stats.unbounded
        assert set(stats.percentiles) == {"p50", "p90", "p99"}

    def test_dynamic_synthetic_matches_formula(self):
        policy = DynamicPolicy(
            observe=1, limit=10**6, predictor=SyntheticPredictor(0.8)
        )
        stats = simulate_policy(
            TWO_POINT, policy, trials=4000, master_seed=1
        )
        want_runs = dynamic_expected_runs(0.8, 0.5, 1.0)
        assert math.isclose(stats.expected_runs, want_runs)
        assert abs(stats.mc_mean_runs - want_runs) < 3 * stats.mc_se_runs + 1e-9
        assert stats.mc_mean_cost <= stats.expected_steps + 3 * stats.mc_se_cost

    def test_luby_finite_on_heavy_tail(self):
        stats = simulate_policy(
            TWO_POINT, LubyPolicy(1), trials=2000, master_seed=2
        )
        assert not stats.unbounded
        assert stats.mc_mean_cost <= 10 * 2.0

    def test_deterministic_per_master_seed(self):
        a = simulate_policy(TWO_POINT, FixedPolicy(1), 500, master_seed=7)
        b = simulate_policy(TWO_POINT, FixedPolicy(1), 500, master_seed=7)
        assert a.mc_mean_cost == b.mc_mean_cost
        assert a.percentiles == b.percentiles

    def test_fixed_below_support_unbounded_without_hanging(self):
        rtd = EmpiricalRTD([5, 9])
        stats = simulate_policy(rtd, FixedPolicy(4), 100, master_seed=0)
        assert stats.unbounded
        assert is_unbounded(stats.mc_mean_cost)
        assert is_unbounded(stats.percentiles["p50"])

    def test_dynamic_impossible_config_unbounded(self):
        policy = DynamicPolicy(
            observe=1, limit=2, predictor=SyntheticPredictor(1.0)
        )
        stats = simulate_policy(
            EmpiricalRTD([5, 6]), policy, 50, master_seed=0
        )
        assert stats.unbounded

    def test_model_predictor_zero_success_unbounded_fast(self):
        # model always predicts LONG and every run outlives the observation
        # window: the exact precheck must catch this without simulating
        ds = tiny_dataset([100, 200, 300])
        model = marginal_model(np.zeros(5, dtype=bool), columns=ds.columns)
        policy = DynamicPolicy(
            observe=1, limit=10**9, predictor=ModelPredictor(model)
        )
        stats = simulate_policy(DatasetSource(ds), policy, 50, master_seed=0)
        assert stats.unbounded

    def test_model_predictor_reachable_rows_succeed(self):
        ds = tiny_dataset([10, 20, 30, 40])
        model = marginal_model(np.ones(5, dtype=bool), columns=ds.columns)
        policy = DynamicPolicy(observe=5, limit=50, predictor=ModelPredictor(model))
        stats = simulate_policy(DatasetSource(ds), policy, 200, master_seed=3)
        assert not stats.unbounded
        assert math.isclose(stats.mc_mean_runs, 1.0)  # every run predicted SHORT

    def test_run_budget_trips(self):
        lengths = [10] * 999 + [1]
        stats = simulate_policy(
            EmpiricalRTD(lengths),
            FixedPolicy(1),
            trials=3,
            master_seed=5,
            run_budget=5,
        )
        assert stats.unbounded

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            simulate_policy(TWO_POINT, FixedPolicy(1), 0, master_seed=0)


class TestDynamicCostAccounting:
    def test_restart_costs_observation_window(self):
        # predictor always says LONG (accuracy 0 on short runs): every run
        # restarts after exactly `observe` steps until the budget trips
        rtd = EmpiricalRTD([100])
        policy = DynamicPolicy(observe=10, limit=200, predictor=SyntheticPredictor(0.0))
        stats = simulate_policy(rtd, policy, 20, master_seed=1, run_budget=50)
        assert stats.unbounded  # success probability is exactly 0

    def test_true_short_with_good_predictor_costs_true_length(self):
        rtd = EmpiricalRTD([7])
        policy = DynamicPolicy(observe=3, limit=20, predictor=SyntheticPredictor(1.0))
        stats = simulate_policy(rtd, policy, 50, master_seed=2)
        assert stats.mc_mean_cost == 7.0
        assert stats.mc_mean_runs == 1.0


@settings(max_examples=30, deadline=None)
@given(
    lengths=st.lists(st.integers(0, 500), min_size=1, max_size=60),
    cutoff=st.integers(1, 600),
)
def test_expected_time_fixed_formula_consistency(lengths, cutoff):
    rtd = EmpiricalRTD(lengths)
    e = expected_time_fixed(rtd, cutoff)
    p = rtd.cdf(cutoff)
    if p == 0:
        assert is_unbounded(e)
    else:
        assert math.isclose(e, rtd.expected_truncated(cutoff) / p)
        assert e >= rtd.expected_truncated(cutoff)


@settings(max_examples=30, deadline=None)
@given(lengths=st.lists(st.integers(0, 300), min_size=1, max_size=50))
def test_optimal_cutoff_is_global_minimum(lengths):
    rtd = EmpiricalRTD(lengths)
    c_star, cost_star = optimal_fixed_cutoff(rtd)
    costs = {c: expected_time_fixed(rtd, c) for c in range(1, int(rtd.lengths[-1]) + 2)}
    assert cost_star == min(costs.values())
    assert c_star == min(c for c, cost in costs.items() if cost == cost_star)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 300), st.booleans()), min_size=1, max_size=40)
       .filter(lambda rows: not all(censored for _, censored in rows)),
       observe=st.integers(1, 305), accuracy=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
def test_dataset_runs_price_as_their_lengths(rows, observe, accuracy, seed):
    # the uncensored rows of a dataset, in any order, have the closed forms
    # and analytics of their run lengths, and are drawn in row order
    ds = tiny_dataset([length for length, _ in rows])
    ds.censored[:] = [censored for _, censored in rows]
    lengths = ds.runtime[~ds.censored].tolist()
    runs, rtd = DatasetSource(ds), EmpiricalRTD(lengths)
    assert runs.lengths.tolist() == lengths
    assert runs.dataset.runtime.tolist() == lengths
    assert runs.sorted.tolist() == rtd.lengths.tolist()
    assert optimal_fixed_cutoff(runs) == optimal_fixed_cutoff(rtd)
    assert scan_dynamic_limits(runs, observe, accuracy) == scan_dynamic_limits(rtd, observe, accuracy)
    policies = [FixedPolicy(observe), LubyPolicy(observe),
                DynamicPolicy(observe, observe + 40, SyntheticPredictor(accuracy)),
                DynamicPolicy(observe, math.inf, SyntheticPredictor(accuracy))]
    for policy in policies:
        assert policy.analytic(runs) == policy.analytic(rtd)
    assert expected_time_fixed(runs, observe) == expected_time_fixed(rtd, observe)
    # a cutoff past every run ends each trial in one run of the drawn row's length
    cost, count = np.zeros(50), np.zeros(50, dtype=np.int64)
    _price_rounds(runs, FixedPolicy(301), fc_kernel.pcg64(seed), cost, count, 1)
    drawn = np.random.default_rng(seed).integers(0, len(lengths), size=50)
    assert cost.tolist() == [float(lengths[i]) for i in drawn]


@st.composite
def _policy_case(draw):
    """Runs to price, a policy, and a run budget that may trip."""
    # shortest run 0, 1, or past the first Luby cutoffs; one row or several
    shortest = draw(st.sampled_from([0, 1]) | st.integers(2, 70))
    rows = draw(st.just(1) | st.integers(1, 40))
    lengths = [shortest + d for d in draw(st.lists(st.integers(0, 400), min_size=rows, max_size=rows))]
    kind = draw(st.sampled_from(["fixed", "luby", "synthetic", "model"]))
    if kind == "fixed":
        policy = FixedPolicy(draw(st.integers(1, max(lengths) + 5)))
    elif kind == "luby":
        policy = LubyPolicy(draw(st.integers(1, 8)))
    else:
        observe = draw(st.integers(1, max(lengths) + 5))
        limit = draw(st.just(math.inf) | st.integers(observe + 1, observe + 500))
        if kind == "synthetic":
            accuracy = draw(st.just(0.0) | st.floats(0.1, 1.0))
            policy = DynamicPolicy(observe, limit, SyntheticPredictor(accuracy))
        else:
            ds = tiny_dataset(lengths)
            ds.X[:, 0] = draw(st.lists(st.floats(-5, 5), min_size=ds.size, max_size=ds.size))
            split = draw(st.floats(-5, 5))
            leaves = [TreeNode(draw(st.integers(0, 3)), draw(st.integers(0, 3))) for _ in range(2)]
            model = DecisionTreeModel(
                root=TreeNode(4, 4, feature=0, threshold=split, left=leaves[0], right=leaves[1]),
                columns=ds.columns, kappa=1.0,
            )
            policy = DynamicPolicy(observe, limit, ModelPredictor(model))
            return DatasetSource(ds), policy, draw(st.just(10**6) | st.integers(1, 200))
    return (
        EmpiricalRTD(lengths), policy,
        draw(st.just(10**6) | st.integers(1, 200)),
    )


@settings(max_examples=150, deadline=None)
@given(case=_policy_case(), trials=st.integers(1, 300), seed=st.integers(0, 2**32),
       buffered=st.booleans())
def test_simulation_equals_reference_loop(case, trials, seed, buffered):
    source, policy, budget = case
    want = reference.simulate(source, policy, trials, seed, run_budget=budget)
    got = simulate_policy(source, policy, trials, seed, run_budget=budget)
    assert asdict(got) == asdict(want)
    if want.unbounded:
        return
    # the same rounds from a stream whose first 32-bit word is already
    # taken, so the first round (synthetic too) begins on a buffered half-word
    rngs = [np.random.default_rng(seed), np.random.default_rng(seed)]
    for rng in rngs:
        rng.integers(0, 2**32, size=int(buffered), dtype=np.uint32)
    cost, runs, unbounded = reference.price_rounds(source, policy, rngs[0], trials, budget)
    got_cost, got_runs = np.zeros(trials), np.zeros(trials, dtype=np.int64)
    with kernel_stream(rngs[1]) as stream:
        state = _price_rounds(source, policy, stream, got_cost, got_runs, budget)
    assert (state.n_active > 0) == unbounded
    if not unbounded:
        assert got_cost.tolist() == cost.tolist()
        assert got_runs.tolist() == runs.tolist()
        _same_stream(rngs[1], rngs[0])


def test_budget_trips_inside_rounds_no_run_can_win():
    # Luby cutoffs stay at 16 or below until round 63 (the first 32), so
    # budgets under 63 trip while no run can win yet
    source = EmpiricalRTD([18, 40, 700])
    for budget in (1, 14, 31, 62, 63, 200, 10**6):
        want = reference.simulate(source, LubyPolicy(1), 50, 3, run_budget=budget)
        got = simulate_policy(source, LubyPolicy(1), 50, 3, run_budget=budget)
        assert asdict(got) == asdict(want)
        assert got.unbounded or budget >= 63


def test_luby_steps_only_in_rounds_some_run_can_win():
    # the kernel draws the rows of the rounds whose cutoff reaches the
    # shortest run, 18, and skips the rest
    source = EmpiricalRTD([18, 19, 25, 40, 90, 400, 3000])
    rounds = []
    want = reference.simulate(source, LubyPolicy(1), 2000, 81, rounds=rounds)
    got = simulate_policy(source, LubyPolicy(1), 2000, 81)
    assert asdict(got) == asdict(want)
    live = sum(n for r, n in rounds if luby_term(r) >= 18)
    dead = sum(n for r, n in rounds if luby_term(r) < 18)
    cost, runs = np.zeros(2000), np.zeros(2000, dtype=np.int64)
    stream = fc_kernel.pcg64(derive_seed(81, "policy", "luby:1"))
    state = _price_rounds(source, LubyPolicy(1), stream, cost, runs, 10**6)
    assert live > 0 and dead > live
    assert (state.live_draws, state.dead_draws) == (live, dead)


# Bounds where numpy's rejection matters: 1 draws nothing, powers of two
# reject nothing, 2**31+1 rejects about half the words.
SKIP_BOUNDS = (1, 2, 3, 64, 5000, 2**31 + 1, 3 * 2**30, 2**32 - 1)


@contextlib.contextmanager
def kernel_stream(rng):
    """rng's PCG64 state as a kernel pcg64_state, for streams that no seed
    starts (a buffered half-word, a chosen one); afterwards rng continues
    from wherever the kernel left the stream."""
    state = rng.bit_generator.state
    lcg = state["state"]
    mask = 2**64 - 1
    stream = fc_kernel.load().ffi.new("pcg64_state *", {
        "state_hi": lcg["state"] >> 64, "state_lo": lcg["state"] & mask,
        "inc_hi": lcg["inc"] >> 64, "inc_lo": lcg["inc"] & mask,
        "has_uint32": state["has_uint32"], "uinteger": state["uinteger"],
    })
    yield stream
    lcg["state"] = stream.state_hi << 64 | stream.state_lo
    state["has_uint32"] = stream.has_uint32
    state["uinteger"] = stream.uinteger
    rng.bit_generator.state = state


def _same_stream(a, b):
    """Equal PCG64 states (the buffered half-word only while it is pending)
    and equal next draws."""
    sa, sb = a.bit_generator.state, b.bit_generator.state
    if not sa["has_uint32"]:
        sa.pop("uinteger")
        sb.pop("uinteger")
    assert sa == sb
    assert a.integers(0, 2**40, size=5).tolist() == b.integers(0, 2**40, size=5).tolist()


def _kernel_skip(rng, high, count):
    """Advance rng as the kernel skips the draws of dead rounds: a
    rounds_state with count draws pending and no trial left."""
    kernel = fc_kernel.load()
    state = kernel.ffi.new("rounds_state *", {"rows": high, "pending": count})
    with kernel_stream(rng) as stream:
        assert kernel.lib.pcg64_price_rounds(state, stream, count + 1) == 0
    assert state.pending == 0


def _kernel_draws(rng, high, count):
    """The rows the kernel draws for count trials in one priced round: a
    fixed cutoff that every run of lengths 0..high-1 meets costs each trial
    its row."""
    cost, runs = np.zeros(count), np.zeros(count, dtype=np.int64)
    source = EmpiricalRTD(range(high))
    with kernel_stream(rng) as stream:
        _price_rounds(source, FixedPolicy(high), stream, cost, runs, 1)
    assert (runs == 1).all()
    return cost.astype(np.int64).tolist()


def _stream(state):
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state
    return rng


def _check_draws(rng, high, count):
    """From rng's state, the kernel's skip of count draws below high, and
    (for high up to 5001) its drawing of them, leave the stream as
    Generator.integers(0, high, size=count) leaves it, with the same values."""
    state = rng.bit_generator.state
    drawn = _stream(state)
    want = drawn.integers(0, high, size=count).tolist()
    _kernel_skip(rng, high, count)
    _same_stream(rng, drawn)
    if high <= 5001:
        kernel, drawn = _stream(state), _stream(state)
        assert _kernel_draws(kernel, high, count) == want
        drawn.integers(0, high, size=count)
        _same_stream(kernel, drawn)


class TestKernelSkip:
    @settings(max_examples=300, deadline=None)
    @given(
        high=st.sampled_from(SKIP_BOUNDS) | st.integers(1, 2**32 - 1),
        count=st.integers(0, 5000),
        predraw=st.integers(0, 2),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_skip_equals_drawing(self, high, count, predraw, seed):
        skipped = np.random.default_rng(seed)
        for _ in range(predraw):  # one 32-bit word each: both buffer states occur
            skipped.integers(0, 2**32, dtype=np.uint32)
        _check_draws(skipped, high, count)

    @pytest.mark.parametrize("predraw", [0, 1])
    @pytest.mark.parametrize("count", [2**32 + 6, 2**32 + 7, 3 * 2**40 + 1])
    @pytest.mark.parametrize("high", [2, 64])
    def test_counts_beyond_2_32_without_rejection(self, high, count, predraw):
        # no word is rejected below a power of two, so count draws are the
        # buffered half-word, if any, then whole outputs, then one half-word
        # of one more output when an odd number is left
        skipped = np.random.default_rng(count + predraw)
        for _ in range(predraw):
            skipped.integers(0, 2**32, dtype=np.uint32)
        drawn = _stream(skipped.bit_generator.state)
        for _ in range(predraw):  # the buffered half-word
            drawn.integers(0, 2**32, dtype=np.uint32)
        left = count - predraw
        drawn.bit_generator.advance(left // 2)
        if left % 2:
            drawn.integers(0, 2**32, dtype=np.uint32)
        _kernel_skip(skipped, high, count)
        _same_stream(skipped, drawn)

    def test_a_million_draws_below_64(self):
        _check_draws(np.random.default_rng(64), 64, 10**6)

    @pytest.mark.parametrize("high", [3, 5001, 2**31 + 1, 2**32 - 1])
    def test_rejection_boundary(self, high):
        # a buffered word whose low product half sits just below and at
        # numpy's threshold: rejected, then accepted
        threshold = (2**32 - high) % high
        for low_half in (threshold - 1, threshold):
            skipped = np.random.default_rng(high)
            state = skipped.bit_generator.state
            state["has_uint32"] = 1
            state["uinteger"] = low_half * pow(high, -1, 2**32) % 2**32
            skipped.bit_generator.state = state
            _check_draws(skipped, high, 2)

    @pytest.mark.parametrize("scale", [1, 3])
    @pytest.mark.parametrize("lengths", [
        [40],  # one length: numpy draws nothing
        [18 + 7 * i for i in range(64)],  # a power of two: no word is rejected
        [18, 19, 25, 40, 90, 400, 3000],
    ])
    def test_luby_equals_drawing_on_rtds(self, lengths, scale):
        source = EmpiricalRTD(lengths)
        policy = LubyPolicy(scale)
        want = reference.simulate(source, policy, 3000, 81)
        assert asdict(simulate_policy(source, policy, 3000, 81)) == asdict(want)

    @pytest.mark.parametrize("scale", [1, 3])
    def test_luby_equals_drawing_on_a_dataset(self, scale):
        ds = tiny_dataset([20, 35, 60, 61, 400, 2500])
        ds.X[:, 0] = np.arange(ds.size)
        source = DatasetSource(ds)
        policy = LubyPolicy(scale)
        want = reference.simulate(source, policy, 2000, 7)
        assert asdict(simulate_policy(source, policy, 2000, 7)) == asdict(want)

    def test_policy_without_the_kernel_exits_4(self, tmp_path, monkeypatch, capsys):
        # every simulated policy needs the kernel; the closed forms do not
        rtd_path = tmp_path / "rtd.txt"
        write_rtd(str(rtd_path), [18, 19, 25, 40, 90, 400, 3000])
        monkeypatch.setattr(fc_kernel, "_cache_dirs", lambda: [tmp_path / "cache"])
        monkeypatch.setattr(fc_kernel, "COMPILER", "restartlab-missing-cc")
        fc_kernel.load.cache_clear()
        try:
            for spec in ("fixed:3000", "luby:18", "dynamic:20,100"):
                argv = ["policy", str(rtd_path), "--policy", spec, "--trials", "10"]
                assert main(argv) == EXIT_KERNEL, spec
                assert capsys.readouterr().err == (
                    "error: the C kernel is unavailable:"
                    " no C compiler (restartlab-missing-cc) on PATH\n"), spec
            assert main(["policy", str(rtd_path), "--scan-limit", "20"]) == 0
            assert main(["policy", str(rtd_path), "--policy", "fixed:17"]) == 3
        finally:
            fc_kernel.load.cache_clear()

    def test_one_draw_per_kernel_call(self, monkeypatch):
        source = EmpiricalRTD([18, 19, 25, 40, 90, 400, 3000])
        policies = [LubyPolicy(1), FixedPolicy(40),
                    DynamicPolicy(20, 100, SyntheticPredictor(0.7))]
        want = [simulate_policy(source, policy, 500, 81) for policy in policies]
        monkeypatch.setattr(policy_module, "_CALL_DRAWS", 1)
        for policy, stats in zip(policies, want):
            assert asdict(simulate_policy(source, policy, 500, 81)) == asdict(stats)
