"""Bayesian decision-tree learning: scoring, growth, tuning, cascades."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restartlab import learn as learn_module
from restartlab.learn import (
    DEFAULT_KAPPA_GRID,
    Dataset,
    TreeNode,
    _best_split,
    _grow,
    _log_factorials,
    _presort,
    cascade_datasets,
    evaluate,
    grow_tree,
    label_by_median,
    leaf_log_marginal,
    marginal_model,
    predict_batch,
    tree_score,
    tune_kappa,
)

import reference


class TestLabelByMedian:
    def test_even_count(self):
        median, labels = label_by_median([3, 10, 20, 100])
        assert median == 15.0
        assert labels.tolist() == [True, True, False, False]

    def test_all_equal_all_long(self):
        median, labels = label_by_median([7, 7, 7])
        assert median == 7.0
        assert labels.tolist() == [False, False, False]

    def test_tie_at_median_is_long(self):
        median, labels = label_by_median([5, 9])
        assert median == 7.0
        assert labels.tolist() == [True, False]
        median, labels = label_by_median([5, 7, 9])
        assert median == 7.0
        assert labels.tolist() == [True, False, False]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            label_by_median([])


class TestLeafLogMarginal:
    def test_zero_counts(self):
        assert leaf_log_marginal(0, 0) == 0.0

    def test_one_one(self):
        assert math.isclose(leaf_log_marginal(1, 1), math.log(1 / 6), rel_tol=1e-12)

    def test_pure_pairs(self):
        assert math.isclose(leaf_log_marginal(1, 0), math.log(1 / 2))
        assert math.isclose(leaf_log_marginal(2, 0), math.log(1 / 3))
        assert math.isclose(leaf_log_marginal(0, 3), math.log(1 / 4))

    def test_factorial_formula(self):
        for s in range(6):
            for l in range(6):
                direct = math.log(
                    math.factorial(s)
                    * math.factorial(l)
                    / math.factorial(s + l + 1)
                )
                assert math.isclose(leaf_log_marginal(s, l), direct, rel_tol=1e-12)

    def test_symmetry(self):
        assert leaf_log_marginal(3, 5) == leaf_log_marginal(5, 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            leaf_log_marginal(-1, 0)

    def test_laplace_is_posterior_ratio(self):
        # P(next is SHORT | s, l) = B(s+1, l)/B(s, l) = (s+1)/(s+l+2)
        for s in range(5):
            for l in range(5):
                ratio = math.exp(
                    leaf_log_marginal(s + 1, l) - leaf_log_marginal(s, l)
                )
                assert math.isclose(ratio, (s + 1) / (s + l + 2), rel_tol=1e-12)


class TestTreeScore:
    def test_single_leaf(self):
        root = TreeNode(n_short=1, n_long=1)
        got = tree_score(root, kappa=0.5)
        assert math.isclose(got, math.log(0.5) + math.log(1 / 6))

    def test_two_leaves(self):
        root = TreeNode(
            n_short=1,
            n_long=1,
            feature=0,
            threshold=0.5,
            left=TreeNode(n_short=1, n_long=0),
            right=TreeNode(n_short=0, n_long=1),
        )
        got = tree_score(root, kappa=0.5)
        want = 2 * math.log(0.5) + 2 * math.log(1 / 2)
        assert math.isclose(got, want)

    def test_bad_kappa(self):
        with pytest.raises(ValueError):
            tree_score(TreeNode(1, 1), kappa=0.0)


class TestGrowTree:
    def test_separable_single_split(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([True, True, False, False])
        model = grow_tree(X, y, kappa=0.5)
        assert model.leaf_count == 2
        assert model.root.feature == 0
        assert model.root.threshold == 1.5
        assert predict_batch(model, [[0.0], [3.0]]).tolist() == [3 / 4, 1 / 4]

    def test_break_even_kappa(self):
        # 2-row pure split: gain ln(3k/2) flips sign at kappa = 2/3
        X = np.array([[0.0], [1.0]])
        y = np.array([True, False])
        assert grow_tree(X, y, kappa=2 / 3 + 0.01).leaf_count == 2
        assert grow_tree(X, y, kappa=2 / 3 - 0.01).leaf_count == 1

    def test_kappa_to_zero_single_leaf(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 5))
        y = X[:, 2] > 0
        assert grow_tree(X, y, kappa=1e-300).leaf_count == 1

    def test_leaf_count_monotone_in_kappa(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(120, 4))
        y = (X[:, 0] + 0.7 * rng.normal(size=120)) > 0
        counts = [
            grow_tree(X, y, kappa=k).leaf_count for k in (1e-1, 1e-3, 1e-6, 1e-12)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_smaller_kappa_tree_is_prefix(self):
        # the greedy split order does not depend on kappa, only the stop point
        rng = np.random.default_rng(3)
        X = rng.normal(size=(100, 3))
        y = (X[:, 1] - X[:, 0]) > 0

        def split_set(node):
            if node.is_leaf:
                return set()
            return (
                {(node.feature, node.threshold)}
                | split_set(node.left)
                | split_set(node.right)
            )

        small = grow_tree(X, y, kappa=1e-4)
        big = grow_tree(X, y, kappa=1e-1)
        assert split_set(small.root) <= split_set(big.root)

    def test_feature_tie_break_lowest_index(self):
        # identical columns: the split must land on feature 0
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([True, True, False, False])
        model = grow_tree(X, y, kappa=0.5)
        assert model.root.feature == 0

    def test_threshold_tie_break_lowest(self):
        # both boundaries give identical gains; lowest midpoint must win
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([True, False, True])
        model = grow_tree(X, y, kappa=1.5)
        assert model.root.threshold == 0.5

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(80, 6))
        y = X[:, 3] > 0.2

        def dump(node):
            if node.is_leaf:
                return (node.n_short, node.n_long)
            return (node.feature, node.threshold, dump(node.left), dump(node.right))

        a = grow_tree(X, y, kappa=1e-2)
        b = grow_tree(X, y, kappa=1e-2)
        assert dump(a.root) == dump(b.root)

    def test_root_counts(self):
        X = np.zeros((5, 2))
        y = np.array([True, True, False, False, False])
        model = grow_tree(X, y, kappa=0.5)
        assert model.training_counts == (2, 3)
        assert model.leaf_count == 1  # constant features, nothing to split on

    def test_input_validation(self):
        with pytest.raises(ValueError):
            grow_tree(np.zeros((3, 1)), np.array([True, False]), kappa=0.5)
        with pytest.raises(ValueError):
            grow_tree(np.zeros((2, 1)), np.array([True, False]), kappa=0.0)
        with pytest.raises(ValueError):
            grow_tree(
                np.zeros((2, 2)), np.array([True, False]), 0.5, columns=["only_one"]
            )

    def test_grown_tree_score_beats_marginal_in_sample(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(150, 3))
        y = X[:, 0] > 0
        kappa = 1e-2
        grown = grow_tree(X, y, kappa)
        single = marginal_model(y)
        assert tree_score(grown.root, kappa) >= tree_score(single.root, kappa)

    def test_adjacent_doubles_split_as_scored(self):
        # the midpoint of two adjacent doubles rounds up to the larger one,
        # which `<= threshold` would send left with the smaller
        a = np.nextafter(1.0, 2.0)
        b = np.nextafter(a, 2.0)
        model = grow_tree(np.array([[a], [b]]), np.array([True, False]), 0.9)
        assert model.leaf_count == 2
        assert a <= model.root.threshold < b
        assert (model.root.left.n_short, model.root.right.n_long) == (1, 1)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(2, 80),
        features=st.integers(1, 3),
        data_seed=st.integers(0, 2**32 - 1),
        kappa=st.sampled_from([0.9, 0.1, 1e-3]),
    )
    def test_children_hold_the_scored_partition(self, rows, features, data_seed, kappa):
        # columns of runs of adjacent doubles (a few ulps above or below a
        # drawn start), where many midpoints round up, or of integer levels
        rng = np.random.default_rng(data_seed)
        X = rng.integers(0, 4, size=(rows, features)).astype(float)
        for j in np.nonzero(rng.random(features) < 0.7)[0]:
            start = rng.choice([1.0, -3.5, 1e6, 2.0**-20, 7e-300])
            ulps = rng.integers(0, 6, size=rows)
            X[:, j] = (np.full(rows, start).view(np.int64) + ulps).view(np.float64)
        y = rng.random(rows) < rng.random()
        model, gains = _grow(X, y, kappa)
        assert model.root == reference._grow_trees(X, y, [kappa])[0].root
        log_fact = _log_factorials(rows + 1)

        def check(node, node_rows, depth):
            assert depth <= rows
            if node.is_leaf:
                return
            values = np.unique(X[node_rows, node.feature])
            below = np.searchsorted(values, node.threshold, side="right")
            # the threshold lies on a boundary a < b of the node's values:
            # a <= threshold < b, so the rows up to a go left, and only they
            assert 1 <= below < values.size
            left = node_rows[X[node_rows, node.feature] <= node.threshold]
            right = node_rows[X[node_rows, node.feature] > node.threshold]
            for child, part in ((node.left, left), (node.right, right)):
                assert (child.n_short, child.n_long) == (int(y[part].sum()),
                                                         int(part.size - y[part].sum()))
            scored = (learn_module._leaf_log_marginals(log_fact, node.left.n_short,
                                                       node.left.n_long)
                      + learn_module._leaf_log_marginals(log_fact, node.right.n_short,
                                                         node.right.n_long)
                      - learn_module._leaf_log_marginals(log_fact, node.n_short, node.n_long))
            assert gains[id(node)] == pytest.approx(scored, rel=1e-12, abs=1e-12)
            check(node.left, left, depth + 1)
            check(node.right, right, depth + 1)

        check(model.root, np.arange(rows), 0)


class TestBestSplit:
    @settings(max_examples=250, deadline=None)
    @given(
        rows=st.integers(1, 300),
        features=st.integers(0, 130),
        keep=st.floats(0.0, 1.0),
        short_rate=st.floats(0.0, 1.0),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_per_feature_loop(self, rows, features, keep, short_rate,
                                         data_seed):
        # a leaf of random ascending rows; each column has a few integer
        # levels, a few hundred (ties beyond 64 boundaries force the
        # thinning), or no ties at all; values straddle zero
        rng = np.random.default_rng(data_seed)
        kinds = rng.integers(0, 3, size=features)
        X = np.where(
            kinds == 0,
            rng.integers(-2, 3, size=(rows, features)),
            np.where(kinds == 1, rng.integers(-200, 200, size=(rows, features)),
                     rng.normal(size=(rows, features))),
        ).astype(float)
        y = rng.random(rows) < short_rate
        leaf = np.nonzero(rng.random(rows) < keep)[0]
        if not leaf.size:
            leaf = np.sort(rng.choice(rows, size=1))
        # the leaf's presort as _grow builds it: the full presort, filtered
        full = _presort(X)
        order = full[np.isin(full, leaf)].reshape(features, leaf.size)
        log_fact = _log_factorials(rows + 1)
        got = _best_split(X, y, leaf, order, log_fact, {})
        assert got == reference.best_split(X, y, leaf, log_fact)


class TestPredict:
    def test_sequence_length_checked(self):
        model = grow_tree(
            np.array([[0.0], [1.0]]), np.array([True, False]), 0.9, columns=["a"]
        )
        with pytest.raises(ValueError):
            predict_batch(model, [[1.0, 2.0]])
        with pytest.raises(ValueError):
            predict_batch(model, [1.0])
        # a single leaf that still names its columns checks the width too
        with pytest.raises(ValueError):
            predict_batch(marginal_model([True, False], columns=["a"]), [[1.0, 2.0]])

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(60, 4))
        y = X[:, 1] > 0
        model = grow_tree(X, y, kappa=1e-1)
        batch = predict_batch(model, X)
        for i in range(X.shape[0]):
            node = model.root
            while not node.is_leaf:
                node = node.left if X[i, node.feature] <= node.threshold else node.right
            assert batch[i] == (node.n_short + 1) / (node.n_short + node.n_long + 2)

    def test_probabilities_strictly_inside_unit_interval(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([True, False])
        model = grow_tree(X, y, kappa=0.9)
        p = predict_batch(model, X)
        assert (p > 0).all() and (p < 1).all()

    def test_marginal_model_constant(self):
        y = np.array([True] * 3 + [False] * 7)
        model = marginal_model(y)
        p = predict_batch(model, np.zeros((4, 0)))
        assert (p == (3 + 1) / (10 + 2)).all()


class TestEvaluate:
    def test_hand_case(self):
        model = marginal_model(np.array([True, False]))  # p = 0.5 everywhere
        rep = evaluate(model, np.zeros((2, 0)), np.array([True, False]))
        # 0.5 is not > 0.5, so everything is called LONG
        assert rep.accuracy == 0.5
        assert math.isclose(rep.avg_log_score, math.log(0.5))
        assert rep.confusion == {
            "short_as_short": 0,
            "short_as_long": 1,
            "long_as_short": 0,
            "long_as_long": 1,
        }

    def test_perfect_model(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([True, True, False, False])
        model = grow_tree(X, y, kappa=0.5)
        rep = evaluate(model, X, y)
        assert rep.accuracy == 1.0
        assert rep.size == 4
        assert math.isclose(rep.avg_log_score, math.log(3 / 4))

    def test_empty_rejected(self):
        model = marginal_model(np.array([True]))
        with pytest.raises(ValueError):
            evaluate(model, np.zeros((0, 0)), np.array([], dtype=bool))


class TestTuneKappa:
    def test_returns_grid_member_and_full_fit(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(200, 3))
        y = (X[:, 0] + 0.3 * rng.normal(size=200)) > 0
        result = tune_kappa(X, y, seed=0)
        assert result.kappa in DEFAULT_KAPPA_GRID
        assert set(result.holdout_scores) == set(DEFAULT_KAPPA_GRID)
        assert result.model.training_counts == (int(y.sum()), int((~y).sum()))

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(100, 2))
        y = X[:, 0] > 0
        a = tune_kappa(X, y, seed=3)
        b = tune_kappa(X, y, seed=3)
        assert a.kappa == b.kappa
        assert a.holdout_scores == b.holdout_scores

    def test_finds_signal(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(300, 2))
        y = X[:, 1] > 0
        result = tune_kappa(X, y, seed=1)
        rep = evaluate(result.model, X, y)
        assert rep.accuracy > 0.9

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            tune_kappa(np.zeros((3, 1)), np.array([True, False, True]))

    @pytest.mark.parametrize("grid, message", [
        ([], "kappa grid is empty"),
        ([0.1, 0.0], "kappa must be positive"),
        ([-1.0], "kappa must be positive"),
    ], ids=["empty", "zero", "negative"])
    def test_bad_grid(self, grid, message):
        # every kappa of the grid is checked, not only the largest, which
        # the tuning tree is grown at
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.arange(10) % 2 == 0
        with pytest.raises(ValueError, match=message):
            tune_kappa(X, y, grid=grid)

    def test_skewed_labels_still_tune(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(50, 2))
        y = np.zeros(50, dtype=bool)
        y[:4] = True
        result = tune_kappa(X, y, seed=0)
        assert result.kappa in DEFAULT_KAPPA_GRID

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(4, 200),
        features=st.integers(0, 4),
        levels=st.one_of(st.integers(1, 4), st.integers(80, 400)),
        noise=st.floats(0.0, 2.0),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 50),
    )
    def test_equals_one_growth_per_kappa(self, rows, features, levels, noise, data_seed,
                                         seed):
        # integer features with few levels are tie-heavy: many splits share
        # a gain, so the tie-breaks of the one kappa-free growth must match
        # one growth per kappa (the reference oracle) and tune_kappa's cut
        # trees must match grow_tree's; features with many levels give
        # leaves of more than 64 boundaries, which thin their candidates;
        # the labels follow the features, so the trees split
        rng = np.random.default_rng(data_seed)
        X = rng.integers(0, levels, size=(rows, features)).astype(float)
        score = X @ rng.normal(size=features) + noise * rng.normal(size=rows)
        y = score < np.median(score)
        kappas = DEFAULT_KAPPA_GRID + (0.5, 0.9, 1.5)
        for kappa, oracle in zip(kappas, reference._grow_trees(X, y, kappas)):
            assert grow_tree(X, y, kappa).root == oracle.root
        try:
            result = tune_kappa(X, y, seed=seed)
        except ValueError as exc:
            assert "two-class tuning split" in str(exc)
            return
        perm = np.random.default_rng(result.split_seed).permutation(rows)
        fit, held = perm[:int(round(rows * 0.7))], perm[int(round(rows * 0.7)):]
        scores = {}
        for kappa in DEFAULT_KAPPA_GRID:
            model = grow_tree(X[fit], y[fit], kappa)
            scores[kappa] = evaluate(model, X[held], y[held]).avg_log_score
        assert result.holdout_scores == scores
        assert result.kappa == max(DEFAULT_KAPPA_GRID, key=scores.__getitem__)
        assert result.model.root == grow_tree(X, y, result.kappa).root


def toy_dataset(runtimes, censored=None, divisor=None):
    runtimes = np.asarray(runtimes, dtype=np.int64)
    n = runtimes.size
    censored = (
        np.zeros(n, dtype=bool) if censored is None else np.asarray(censored, bool)
    )
    divisor = np.ones(n) if divisor is None else np.asarray(divisor, float)
    median, labels = label_by_median(runtimes / divisor)
    return Dataset(
        columns=["f0"],
        X=np.arange(n, dtype=float).reshape(-1, 1),
        runtime=runtimes,
        is_short=labels,
        censored=censored,
        divisor=divisor,
        median=median,
    )


class TestDataset:
    def test_scaled_runtime(self):
        ds = toy_dataset([10, 20], divisor=[2.0, 4.0])
        assert ds.scaled_runtime.tolist() == [5.0, 5.0]

    def test_subset(self):
        ds = toy_dataset([1, 2, 3, 4])
        sub = ds.subset(np.array([True, False, True, False]))
        assert sub.runtime.tolist() == [1, 3]
        assert sub.size == 2
        assert sub.median == ds.median

    def test_relabeled_uses_scaled_runtime(self):
        ds = toy_dataset([10, 30], divisor=[1.0, 10.0])
        out = ds.relabeled(5.0)
        # scaled runtimes are 10 and 3; only the second is below 5
        assert out.is_short.tolist() == [False, True]
        assert out.median == 5.0


class TestCascade:
    def test_stages_relabel_by_subset_median(self):
        ds = toy_dataset([10, 20, 30, 40, 50, 60])
        entries = cascade_datasets(ds, thresholds=[25], min_rows=2)
        assert len(entries) == 1
        e = entries[0]
        assert not e.skipped
        assert e.dataset.runtime.tolist() == [30, 40, 50, 60]
        assert e.dataset.median == 45.0
        assert e.dataset.is_short.tolist() == [True, True, False, False]

    def test_small_stage_skipped_with_reason(self):
        ds = toy_dataset([10, 20, 30, 100])
        entries = cascade_datasets(ds, thresholds=[25, 90], min_rows=2)
        assert not entries[0].skipped
        assert entries[1].skipped
        assert entries[1].dataset is None
        assert "1" in entries[1].reason and "90" in entries[1].reason

    def test_threshold_order_preserved(self):
        ds = toy_dataset(list(range(1, 101)))
        entries = cascade_datasets(ds, thresholds=[10, 50, 80], min_rows=5)
        assert [e.threshold for e in entries] == [10.0, 50.0, 80.0]
        sizes = [e.dataset.size for e in entries if not e.skipped]
        assert sizes == sorted(sizes, reverse=True)

    def test_strictly_above_threshold(self):
        ds = toy_dataset([10, 10, 20, 30])
        entries = cascade_datasets(ds, thresholds=[10], min_rows=1)
        assert entries[0].dataset.runtime.tolist() == [20, 30]


@settings(max_examples=300, deadline=None)
@given(
    counts=st.lists(
        st.tuples(st.integers(0, 5000), st.integers(0, 5000)), min_size=1, max_size=20
    ),
)
def test_leaf_marginal_vector_matches_scalar(counts):
    from restartlab.learn import _leaf_log_marginals, _log_factorials

    # the table grow_tree scores splits with reproduces the scalar bit for bit
    ns = np.array([s for s, _ in counts])
    nl = np.array([l for _, l in counts])
    table = _log_factorials(int((ns + nl).max()) + 1)
    got = _leaf_log_marginals(table, ns, nl)
    assert got.tolist() == [leaf_log_marginal(s, l) for s, l in counts]


@settings(max_examples=25, deadline=None)
@given(
    runtimes=st.lists(st.integers(1, 10**6), min_size=1, max_size=50),
)
def test_median_split_near_balanced(runtimes):
    median, labels = label_by_median(runtimes)
    arr = np.asarray(runtimes)
    assert (labels == (arr < median)).all()
    # at most half the rows can sit strictly below the median
    assert labels.sum() <= len(runtimes) / 2
