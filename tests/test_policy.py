"""Restart-policy analysis: exact formulas, scans, and simulation."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restartlab import fc_kernel
from restartlab import policy as policy_module
from restartlab.learn import (
    Dataset,
    DecisionTreeModel,
    TreeNode,
    label_by_median,
    marginal_model,
)
from restartlab.policy import (
    MAX_LENGTH,
    UNBOUNDED,
    DatasetSource,
    DynamicPolicy,
    EmpiricalRTD,
    FixedPolicy,
    LubyPolicy,
    ModelPredictor,
    PolicyStats,
    Rows,
    RtdSource,
    SyntheticPredictor,
    _skip_integers,
    dynamic_expected_run_length_ub,
    dynamic_expected_runs,
    dynamic_expected_total_ub,
    expected_time_fixed,
    is_unbounded,
    luby_term,
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
        assert rtd.max_length == 9

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
        assert EmpiricalRTD([1, MAX_LENGTH]).max_length == 2**53
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
        for c in range(1, rtd.max_length + 1):
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
            assert math.isclose(
                e["expected_runs"], dynamic_expected_runs(0.9, p_obs, p_lim)
            )
            assert math.isclose(
                e["expected_total_ub"],
                dynamic_expected_total_ub(10, e["limit"], 0.9, p_obs, p_lim),
            )

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
        inf = DynamicPolicy(observe=3, limit=math.inf, predictor=None)
        assert "L=inf" in inf.describe()
        with pytest.raises(ValueError):
            DynamicPolicy(observe=0, limit=5)
        with pytest.raises(ValueError):
            DynamicPolicy(observe=5, limit=5)

    def test_synthetic_predictor_extremes(self):
        lengths = np.array([1, 10, 3, 50])
        rng = np.random.default_rng(0)
        exact = SyntheticPredictor(1.0).predict_short(lengths, None, 5, rng)
        assert exact.tolist() == [True, False, True, False]
        inverted = SyntheticPredictor(0.0).predict_short(lengths, None, 5, rng)
        assert inverted.tolist() == [False, True, False, True]
        with pytest.raises(ValueError):
            SyntheticPredictor(1.5)

    def test_model_predictor_needs_features(self):
        model = marginal_model(np.array([True] * 5))
        pred = ModelPredictor(model)
        with pytest.raises(ValueError):
            pred.predict_short(np.array([1]), None, 10, np.random.default_rng(0))
        rows = Rows(tiny_dataset([1, 2], n_features=0), np.array([0, 1]))
        out = pred.predict_short(np.array([1, 2]), rows, 10, np.random.default_rng(0))
        assert out.tolist() == [True, True]  # counts (5,0) predict SHORT

    def test_model_predictor_calls_each_row_once(self, monkeypatch):
        ds = tiny_dataset([10, 20, 30])
        ds.X[:, 0] = [1.0, 2.0, 3.0]
        model = DecisionTreeModel(
            root=TreeNode(4, 4, feature=0, threshold=2.5,
                          left=TreeNode(3, 0), right=TreeNode(0, 3)),
            columns=ds.columns, kappa=1.0,
        )
        pred = ModelPredictor(model)
        calls = []
        real = policy_module._learn.predict_batch
        monkeypatch.setattr(policy_module._learn, "predict_batch",
                            lambda m, X: calls.append(len(X)) or real(m, X))
        source = DatasetSource(ds)
        rng = np.random.default_rng(4)
        for _ in range(3):
            lengths, rows = source.sample(rng, 50)
            out = pred.predict_short(lengths, rows, 100, rng)
            assert out.tolist() == (real(model, ds.X[rows.index]) > 0.5).tolist()
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
        src = RtdSource(EmpiricalRTD([4, 9]))
        lengths, feats = src.sample(np.random.default_rng(1), 100)
        assert feats is None
        assert set(np.unique(lengths)) <= {4, 9}

    def test_dataset_source_aligned_rows(self):
        ds = tiny_dataset([10, 20, 30])
        ds.X[:, 0] = [1.0, 2.0, 3.0]
        src = DatasetSource(ds)
        lengths, rows = src.sample(np.random.default_rng(2), 200)
        assert rows.dataset is ds and rows.index.shape == (200,)
        assert (ds.X[rows.index, 0] * 10 == lengths).all()
        assert src.rtd.lengths.tolist() == [10, 20, 30]


class TestSimulatePolicy:
    def test_fixed_two_point_matches_exact(self):
        stats = simulate_policy(
            RtdSource(TWO_POINT), FixedPolicy(1), trials=4000, master_seed=0
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
            RtdSource(TWO_POINT), policy, trials=4000, master_seed=1
        )
        want_runs = dynamic_expected_runs(0.8, 0.5, 1.0)
        assert math.isclose(stats.expected_runs, want_runs)
        assert abs(stats.mc_mean_runs - want_runs) < 3 * stats.mc_se_runs + 1e-9
        assert stats.mc_mean_cost <= stats.expected_steps + 3 * stats.mc_se_cost

    def test_luby_finite_on_heavy_tail(self):
        stats = simulate_policy(
            RtdSource(TWO_POINT), LubyPolicy(1), trials=2000, master_seed=2
        )
        assert not stats.unbounded
        assert stats.mc_mean_cost <= 10 * 2.0

    def test_deterministic_per_master_seed(self):
        a = simulate_policy(RtdSource(TWO_POINT), FixedPolicy(1), 500, master_seed=7)
        b = simulate_policy(RtdSource(TWO_POINT), FixedPolicy(1), 500, master_seed=7)
        assert a.mc_mean_cost == b.mc_mean_cost
        assert a.percentiles == b.percentiles

    def test_fixed_below_support_unbounded_without_hanging(self):
        rtd = EmpiricalRTD([5, 9])
        stats = simulate_policy(RtdSource(rtd), FixedPolicy(4), 100, master_seed=0)
        assert stats.unbounded
        assert is_unbounded(stats.mc_mean_cost)
        assert is_unbounded(stats.percentiles["p50"])

    def test_dynamic_impossible_config_unbounded(self):
        policy = DynamicPolicy(
            observe=1, limit=2, predictor=SyntheticPredictor(1.0)
        )
        stats = simulate_policy(
            RtdSource(EmpiricalRTD([5, 6])), policy, 50, master_seed=0
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
            RtdSource(EmpiricalRTD(lengths)),
            FixedPolicy(1),
            trials=3,
            master_seed=5,
            run_budget=5,
        )
        assert stats.unbounded

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            simulate_policy(RtdSource(TWO_POINT), FixedPolicy(1), 0, master_seed=0)


class TestDynamicCostAccounting:
    def test_restart_costs_observation_window(self):
        # predictor always says LONG (accuracy 0 on short runs): every run
        # restarts after exactly `observe` steps until the budget trips
        rtd = EmpiricalRTD([100])
        policy = DynamicPolicy(observe=10, limit=200, predictor=SyntheticPredictor(0.0))
        stats = simulate_policy(RtdSource(rtd), policy, 20, master_seed=1, run_budget=50)
        assert stats.unbounded  # success probability is exactly 0

    def test_true_short_with_good_predictor_costs_true_length(self):
        rtd = EmpiricalRTD([7])
        policy = DynamicPolicy(observe=3, limit=20, predictor=SyntheticPredictor(1.0))
        stats = simulate_policy(RtdSource(rtd), policy, 50, master_seed=2)
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
    assert 1 <= c_star
    for c in range(1, rtd.max_length + 2):
        assert cost_star <= expected_time_fixed(rtd, c) + 1e-9


def _reference_simulate(
    run_source, policy, trials, master_seed, run_budget=1_000_000,
    percentiles=(50, 90, 99),
):
    """simulate_policy as a plain round loop: every round draws its run
    lengths (no draw is skipped), gathers, caps and scatter-adds over every
    active trial, then compacts the active set."""
    rng = np.random.default_rng(derive_seed(master_seed, "policy", policy.describe()))
    analytic = policy.analytic(run_source)
    unbounded = analytic.success_probability == 0.0
    total_cost = np.zeros(trials, dtype=float)
    total_runs = np.zeros(trials, dtype=np.int64)
    if not unbounded:
        active = np.arange(trials)
        round_no = 0
        while active.size:
            round_no += 1
            if round_no > run_budget:
                unbounded = True
                break
            lengths, feats = run_source.sample(rng, active.size)
            cost, success = policy.step(lengths, feats, round_no, rng)
            total_cost[active] += cost
            total_runs[active] += 1
            active = active[~success]
    if unbounded:
        mc_mean = mc_se = mean_runs = se_runs = UNBOUNDED
        pct = {f"p{p}": UNBOUNDED for p in percentiles}
    else:
        mc_mean = float(total_cost.mean())
        mc_se = float(total_cost.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        mean_runs = float(total_runs.mean())
        se_runs = float(total_runs.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        pct = {f"p{p}": float(np.percentile(total_cost, p)) for p in percentiles}
    return PolicyStats(
        policy=policy.describe(), trials=trials,
        expected_runs=analytic.expected_runs, expected_steps=analytic.expected_steps,
        mc_mean_cost=mc_mean, mc_se_cost=mc_se, mc_mean_runs=mean_runs,
        mc_se_runs=se_runs, percentiles=pct, unbounded=unbounded,
    )


@st.composite
def _policy_case(draw):
    """A run source, a policy on it, and a run budget that may trip."""
    # shortest run 0, 1, or past the first Luby cutoffs
    shortest = draw(st.sampled_from([0, 1]) | st.integers(2, 70))
    lengths = [shortest + d for d in draw(st.lists(st.integers(0, 400), min_size=1, max_size=40))]
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
        RtdSource(EmpiricalRTD(lengths)), policy,
        draw(st.just(10**6) | st.integers(1, 200)),
    )


@settings(max_examples=150, deadline=None)
@given(case=_policy_case(), trials=st.integers(1, 300), seed=st.integers(0, 2**32))
def test_simulation_equals_reference_loop(case, trials, seed):
    source, policy, budget = case
    want = _reference_simulate(source, policy, trials, seed, run_budget=budget)
    got = simulate_policy(source, policy, trials, seed, run_budget=budget)
    assert asdict(got) == asdict(want)


def test_budget_trips_inside_rounds_no_run_can_win():
    # Luby cutoffs stay at 16 or below until round 63 (the first 32), so
    # budgets under 63 trip while no run can win yet
    source = RtdSource(EmpiricalRTD([18, 40, 700]))
    for budget in (1, 14, 31, 62, 63, 200, 10**6):
        want = _reference_simulate(source, LubyPolicy(1), 50, 3, run_budget=budget)
        got = simulate_policy(source, LubyPolicy(1), 50, 3, run_budget=budget)
        assert asdict(got) == asdict(want)
        assert got.unbounded or budget >= 63


def test_luby_steps_only_in_rounds_some_run_can_win(monkeypatch):
    source = RtdSource(EmpiricalRTD([18, 19, 25, 40, 90, 400, 3000]))
    want = _reference_simulate(source, LubyPolicy(1), 2000, 81)
    rounds = []
    real_step = LubyPolicy.step

    def spy(self, lengths, features, round_no, rng):
        rounds.append(round_no)
        return real_step(self, lengths, features, round_no, rng)

    monkeypatch.setattr(LubyPolicy, "step", spy)
    got = simulate_policy(source, LubyPolicy(1), 2000, 81)
    assert asdict(got) == asdict(want)
    assert rounds == sorted(set(rounds))
    assert rounds and all(luby_term(r) >= 18 for r in rounds)


# Bounds where numpy's rejection matters: 1 draws nothing, powers of two
# reject nothing, 2**31+1 rejects about half the words.
SKIP_BOUNDS = (1, 2, 3, 64, 5000, 2**31 + 1, 3 * 2**30, 2**32 - 1)


def _same_stream(a, b):
    """Equal PCG64 states (the buffered half-word only while it is pending)
    and equal next draws."""
    sa, sb = a.bit_generator.state, b.bit_generator.state
    if not sa["has_uint32"]:
        sa.pop("uinteger")
        sb.pop("uinteger")
    assert sa == sb
    assert a.integers(0, 2**40, size=5).tolist() == b.integers(0, 2**40, size=5).tolist()


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
        drawn = np.random.Generator(np.random.PCG64())
        drawn.bit_generator.state = skipped.bit_generator.state
        _skip_integers(skipped, high, count)
        drawn.integers(0, high, size=count)
        _same_stream(skipped, drawn)

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
            drawn = np.random.Generator(np.random.PCG64())
            drawn.bit_generator.state = state
            _skip_integers(skipped, high, 2)
            drawn.integers(0, high, size=2)
            _same_stream(skipped, drawn)

    def test_only_pcg64_streams_are_skipped(self):
        mt = np.random.Generator(np.random.MT19937(1))
        with pytest.raises(ValueError, match="only on a PCG64 stream, not MT19937"):
            _skip_integers(mt, 5, 3)
        with pytest.raises(ValueError, match="PCG64"):
            RtdSource(EmpiricalRTD([3, 4])).skip(mt, 3)

    @pytest.mark.parametrize("scale", [1, 3])
    @pytest.mark.parametrize("lengths", [
        [40],  # one length: numpy draws nothing
        [18 + 7 * i for i in range(64)],  # a power of two: no word is rejected
        [18, 19, 25, 40, 90, 400, 3000],
    ])
    def test_luby_equals_drawing_on_rtds(self, lengths, scale):
        source = RtdSource(EmpiricalRTD(lengths))
        policy = LubyPolicy(scale)
        want = _reference_simulate(source, policy, 3000, 81)
        assert asdict(simulate_policy(source, policy, 3000, 81)) == asdict(want)

    @pytest.mark.parametrize("scale", [1, 3])
    def test_luby_equals_drawing_on_a_dataset(self, scale):
        ds = tiny_dataset([20, 35, 60, 61, 400, 2500])
        ds.X[:, 0] = np.arange(ds.size)
        source = DatasetSource(ds)
        policy = LubyPolicy(scale)
        want = _reference_simulate(source, policy, 2000, 7)
        assert asdict(simulate_policy(source, policy, 2000, 7)) == asdict(want)

    def test_no_dead_round_loads_no_kernel(self, monkeypatch):
        # cutoffs never below the shortest run leave no draw to skip, so
        # these policies never ask for the kernel
        def load():
            raise AssertionError("kernel loaded")

        monkeypatch.setattr(fc_kernel, "load", load)
        source = RtdSource(EmpiricalRTD([18, 19, 25, 40, 90, 400, 3000]))
        for policy in (FixedPolicy(18), FixedPolicy(3000), LubyPolicy(18)):
            simulate_policy(source, policy, 500, 81)

    def test_one_draw_per_kernel_call(self, monkeypatch):
        source = RtdSource(EmpiricalRTD([18, 19, 25, 40, 90, 400, 3000]))
        want = simulate_policy(source, LubyPolicy(1), 500, 81)
        monkeypatch.setattr(policy_module, "_SKIP_DRAWS", 1)
        assert asdict(simulate_policy(source, LubyPolicy(1), 500, 81)) == asdict(want)
