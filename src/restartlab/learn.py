"""Bayesian decision-tree learning of run-length classes.

Runs are labeled SHORT when their length falls strictly below the training
median, LONG otherwise; runs that finished before the observation horizon
carry no usable trace and are excluded upstream.  Trees are scored by exact
Bayesian marginal likelihood with a uniform prior over each leaf's class
rate, plus a structure prior of kappa per free parameter (one per leaf), and
grown greedily: every leaf takes its best split while that split raises the
score (the learner of Chickering, Heckerman and Meek, UAI 1997).  A growth
sorts its rows once per feature and filters each parent's order into its
children's, as SLIQ does (Mehta, Agrawal and Rissanen, EDBT 1996).
Predictions are posterior-mean (Laplace) estimates, so they never reach 0
or 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import fc_kernel

SHORT = "SHORT"
LONG = "LONG"

MAX_SPLIT_CANDIDATES = 64


def partition_median(values) -> float:
    """np.median of a non-empty 1-d array, bit for bit: np.partition places
    the middle one or two order statistics, and np.mean averages them.  It
    leaves out np.median's NaN check, which imports numpy.ma; partitioning
    at the last position too places a NaN there, as np.median does."""
    arr = np.asarray(values)
    half = arr.size // 2
    middle = [half] if arr.size % 2 else [half - 1, half]
    part = np.partition(arr, middle + [-1])
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(np.mean(part[middle[0] : half + 1]))


def label_by_median(runtimes: Sequence[float]) -> Tuple[float, np.ndarray]:
    """Median split: returns (median, is_short array); ties go to LONG."""
    arr = np.asarray(runtimes, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot label an empty run set")
    median = partition_median(arr)
    return median, arr < median


def _log_factorials(n: int) -> np.ndarray:
    """ln(k!) for k = 0..n, from math.lgamma so that table lookups reproduce
    the test suite's leaf_log_marginal (tests/reference.py) bit for bit."""
    return np.array([math.lgamma(k + 1) for k in range(n + 1)])


def _leaf_log_marginals(log_fact: np.ndarray, ns, nl):
    """ln of one leaf's marginal likelihood under a uniform rate prior,
    ln(ns! * nl! / (ns + nl + 1)!), by table lookup; needs log_fact to reach
    ns + nl + 1."""
    return log_fact[ns] + log_fact[nl] - log_fact[ns + nl + 1]


@dataclass
class TreeNode:
    """Internal node (feature/threshold set) or leaf (counts only)."""

    n_short: int
    n_long: int
    feature: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def leaves(self) -> Iterable["TreeNode"]:
        if self.is_leaf:
            yield self
        else:
            yield from self.left.leaves()
            yield from self.right.leaves()


@dataclass
class DecisionTreeModel:
    """A grown tree plus everything needed to apply and persist it."""

    root: TreeNode
    columns: List[str]
    kappa: float
    training_median: Optional[float] = None
    registry_hash: Optional[str] = None

    @property
    def leaf_count(self) -> int:
        return sum(1 for _ in self.root.leaves())

    @property
    def training_counts(self) -> Tuple[int, int]:
        return self.root.n_short, self.root.n_long


def _thinned(count: int, picks: Dict[int, np.ndarray]) -> np.ndarray:
    """Ranks of the boundaries kept of count > MAX_SPLIT_CANDIDATES, by rank
    spacing; picks caches them per count."""
    if count not in picks:
        picks[count] = np.unique(
            np.round(np.linspace(0, count - 1, MAX_SPLIT_CANDIDATES)).astype(int)
        )
    return picks[count]


def _presort(X: np.ndarray) -> np.ndarray:
    """(features, rows): each feature's row indices in stable ascending order
    of its column."""
    return np.argsort(X.T, axis=1, kind="stable")


def _best_split(
    X: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    order: np.ndarray,
    log_fact: np.ndarray,
    picks: Dict[int, np.ndarray],
) -> Tuple[float, int, float]:
    """Best (gain, feature, threshold) of one leaf.

    gain is the kappa-free (left + right) - base; the split raises a tree's
    score under kappa when gain + ln kappa > 0, so the best split is the
    same for every kappa.  Candidates are the boundaries between
    consecutive distinct sorted values a < b, thinned to at most
    MAX_SPLIT_CANDIDATES by rank spacing; a boundary's threshold is the
    midpoint (a + b) / 2 when it lies below b, else a, so `<= threshold`
    sends left exactly the rows that were scored left.  Ties are broken
    toward the lowest feature index, then the lowest threshold.  A leaf
    with no candidate (no feature, or every feature constant on its rows)
    has gain -inf.

    order is the leaf's presort: row j holds the leaf's rows in stable
    ascending order of feature j, as _presort sorts them.  One pass scores
    every feature: the leaf's features x rows block of sorted values, every
    boundary in it (by feature, then by value), the rank-spaced picks of the
    features that have too many, one cumulative count of SHORT rows, and the
    gain of every candidate at once; only the best one's threshold is
    computed.  Candidates stay in (feature, threshold) order, so the first
    maximum keeps the tie rule.
    picks is the growth's cache of _thinned ranks.
    """
    ns_total = int(y[rows].sum())
    nl_total = rows.size - ns_total
    base = _leaf_log_marginals(log_fact, ns_total, nl_total)
    sv = X[order, np.arange(order.shape[0])[:, None]]
    feature, at = np.nonzero(sv[:, 1:] != sv[:, :-1])
    counts = np.bincount(feature, minlength=order.shape[0])
    wide = np.nonzero(counts > MAX_SPLIT_CANDIDATES)[0]
    if wide.size:
        first = np.cumsum(counts) - counts
        kept = first[wide, None] + [_thinned(c, picks) for c in counts[wide].tolist()]
        keep = counts[feature] <= MAX_SPLIT_CANDIDATES
        keep[kept.ravel()] = True
        feature, at = feature[keep], at[keep]
    if not at.size:
        return -math.inf, 0, 0.0
    left_n = at + 1
    left_s = np.cumsum(y[order], axis=1)[feature, at]
    left_l = left_n - left_s
    right_s = ns_total - left_s
    right_l = nl_total - left_l
    raw = (
        _leaf_log_marginals(log_fact, left_s, left_l)
        + _leaf_log_marginals(log_fact, right_s, right_l)
        - base
    )
    i = int(np.argmax(raw))  # first max: lowest feature, then lowest threshold
    a, b = float(sv[feature[i], at[i]]), float(sv[feature[i], at[i] + 1])
    mid = (a + b) / 2.0
    # between adjacent doubles the midpoint can round up to b, and then
    # `<= threshold` would send b's rows left too
    return float(raw[i]), int(feature[i]), mid if mid < b else a


def _grow(
    X: np.ndarray,
    y: np.ndarray,
    kappa: float,
    columns: Optional[Sequence[str]] = None,
) -> Tuple[DecisionTreeModel, Dict[int, float]]:
    """grow_tree, also returning the kappa-free gain of each applied split,
    keyed by the id of the node it split."""
    if not 0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=bool)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (rows, features) aligned with y")
    if columns is None:
        columns = [f"f{j}" for j in range(X.shape[1])]
    columns = list(columns)
    if len(columns) != X.shape[1]:
        raise ValueError("column names must match feature count")
    ln_kappa = math.log(kappa)
    log_fact = _log_factorials(X.shape[0] + 1)
    root = TreeNode(n_short=int(y.sum()), n_long=int(X.shape[0] - y.sum()))
    gains: Dict[int, float] = {}
    # (leaf, its rows, their presort) still to split or keep; a child's
    # presort is its parent's, filtered in order, so rows are sorted once
    todo = [(root, np.arange(X.shape[0]), _presort(X))]
    picks: Dict[int, np.ndarray] = {}
    while todo:
        node, rows, order = todo.pop()
        gain, j, theta = _best_split(X, y, rows, order, log_fact, picks)
        if not gain + ln_kappa > 0:
            continue
        mask = X[rows, j] <= theta
        lrows = rows[mask]
        rrows = rows[~mask]
        in_left = np.zeros(X.shape[0], dtype=bool)
        in_left[lrows] = True
        to_left = in_left[order]
        node.feature = j
        node.threshold = theta
        node.left = TreeNode(n_short=int(y[lrows].sum()), n_long=int(lrows.size - y[lrows].sum()))
        node.right = TreeNode(n_short=int(y[rrows].sum()), n_long=int(rrows.size - y[rrows].sum()))
        gains[id(node)] = gain
        todo += [(node.left, lrows, order[to_left].reshape(len(order), lrows.size)),
                 (node.right, rrows, order[~to_left].reshape(len(order), rrows.size))]
    return DecisionTreeModel(root=root, columns=columns, kappa=kappa), gains


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    kappa: float,
    columns: Optional[Sequence[str]] = None,
) -> DecisionTreeModel:
    """Greedy growth from a single leaf.

    Every leaf whose best split (ties toward the lowest feature, then the
    lowest threshold) improves the score is split, until none does.  A
    leaf's split and gain depend only on its own rows, so this is the tree
    that applying the globally best split at every step reaches, in any
    order.  ln kappa shifts every gain by the same amount, so the tree for
    a smaller kappa is a prefix of the tree for a larger one by
    construction: the same splits, cut where gain + ln kappa is not
    positive.
    """
    return _grow(X, y, kappa, columns)[0]


def _cut(node: TreeNode, gains: Dict[int, float], ln_kappa: float) -> TreeNode:
    """Copy of a tree that _grow returned with these gains, as _grow grows
    it at kappa: a split stays where gain + ln kappa is positive and every
    split above it stays."""
    if not gains.get(id(node), -math.inf) + ln_kappa > 0:
        return TreeNode(n_short=node.n_short, n_long=node.n_long)
    return TreeNode(node.n_short, node.n_long, node.feature, node.threshold,
                    _cut(node.left, gains, ln_kappa), _cut(node.right, gains, ln_kappa))


def marginal_model(y: Sequence[bool], columns: Optional[Sequence[str]] = None) -> DecisionTreeModel:
    """The no-feature baseline: a single leaf holding the class counts."""
    y = np.asarray(y, dtype=bool)
    root = TreeNode(n_short=int(y.sum()), n_long=int(y.size - y.sum()))
    return DecisionTreeModel(root=root, columns=list(columns or []), kappa=1.0)


def predict_batch(model: DecisionTreeModel, X: np.ndarray) -> np.ndarray:
    """Vectorized P(SHORT) for a feature matrix aligned with model.columns.

    A featureless single-leaf model (the marginal baseline) takes rows of any
    width; every other model rejects a matrix of the wrong width.
    """
    X = np.asarray(X, dtype=float)
    if (model.columns or not model.root.is_leaf) and (
        X.ndim != 2 or X.shape[1] != len(model.columns)
    ):
        raise ValueError(
            f"expected rows of {len(model.columns)} features, got shape {X.shape}"
        )
    if model.root.is_leaf:
        p = (model.root.n_short + 1) / (model.root.n_short + model.root.n_long + 2)
        return np.full(X.shape[0] if X.ndim == 2 else len(X), p)
    out = np.empty(X.shape[0], dtype=float)

    def fill(node: TreeNode, rows: np.ndarray) -> None:
        if node.is_leaf:
            out[rows] = (node.n_short + 1) / (node.n_short + node.n_long + 2)
            return
        mask = X[rows, node.feature] <= node.threshold
        fill(node.left, rows[mask])
        fill(node.right, rows[~mask])

    fill(model.root, np.arange(X.shape[0]))
    return out


@dataclass
class EvaluationReport:
    """Accuracy and mean natural-log score of a model on a labeled set."""

    size: int
    accuracy: float
    avg_log_score: float
    confusion: Dict[str, int]


def evaluate(model: DecisionTreeModel, X: np.ndarray, y: Sequence[bool]) -> EvaluationReport:
    """Argmax accuracy (P(SHORT) > 0.5 predicts SHORT, 0.5 predicts LONG)
    and average ln P(true label)."""
    y = np.asarray(y, dtype=bool)
    if y.size == 0:
        raise ValueError("cannot evaluate on an empty set")
    p = predict_batch(model, X)
    pred_short = p > 0.5
    correct = pred_short == y
    scores = np.where(y, np.log(p), np.log1p(-p))
    confusion = {
        "short_as_short": int(np.sum(y & pred_short)),
        "short_as_long": int(np.sum(y & ~pred_short)),
        "long_as_short": int(np.sum(~y & pred_short)),
        "long_as_long": int(np.sum(~y & ~pred_short)),
    }
    return EvaluationReport(
        size=int(y.size),
        accuracy=float(correct.mean()),
        avg_log_score=float(scores.mean()),
        confusion=confusion,
    )


@dataclass
class TuningResult:
    """Outcome of the structure-prior search."""

    kappa: float
    model: DecisionTreeModel
    holdout_scores: Dict[float, float]
    holdout_accuracy: float
    split_seed: int


DEFAULT_KAPPA_GRID: Tuple[float, ...] = tuple(10.0 ** -k for k in range(1, 9))


def tune_kappa(
    X: np.ndarray,
    y: Sequence[bool],
    grid: Sequence[float] = DEFAULT_KAPPA_GRID,
    seed: int = 0,
    columns: Optional[Sequence[str]] = None,
) -> TuningResult:
    """Pick kappa by holdout log-likelihood on a seeded 70/30 split.

    One tree is grown on the 70% side at the largest kappa of the grid,
    and each kappa's model is that tree cut where a split's gain plus
    ln kappa is not positive, which is grow_tree's tree at that kappa.
    Cuts are nested in kappa, so two cuts with the same leaf count are the
    same tree, and each distinct cut is evaluated on the 30% side once.  The
    winning kappa (first in grid order on ties) is then used to regrow the
    tree on the full training set.  The split is the rows in the order of
    np.random.default_rng(seed).permutation(n), drawn by the kernel
    (pcg64_permutation), so a negative seed is a ValueError as it is to
    numpy.  A split that leaves the 70% side single-class is degenerate and
    is redrawn with the next seed.

    Each of the two growths sorts its rows once, per feature (_presort),
    and hands each child its parent's order filtered by the split; every
    node then scores all features' candidates in one array pass
    (_best_split), with no per-feature loop.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=bool)
    if not len(grid):
        raise ValueError("kappa grid is empty")
    bad = [k for k in grid if not 0 < k < math.inf]
    if bad:
        raise ValueError(f"kappa must be positive and finite, got {bad[0]}")
    n = y.size
    if n < 4:
        raise ValueError("too few rows to tune on")
    kernel = fc_kernel.load()
    perm = np.empty(n, dtype=np.int64)
    split_seed = seed
    rng_tries = 0
    while True:
        kernel.lib.pcg64_permutation(fc_kernel.pcg64(split_seed),
                                     kernel.ffi.from_buffer("long long[]", perm), n)
        n_fit = int(round(n * 0.7))
        fit_rows, held_rows = perm[:n_fit], perm[n_fit:]
        if 0 < y[fit_rows].sum() < fit_rows.size and held_rows.size > 0:
            break
        rng_tries += 1
        split_seed += 1
        if rng_tries > 100:
            raise ValueError("could not draw a two-class tuning split")
    holdout_scores: Dict[float, float] = {}
    best_kappa = None
    best_score = -math.inf
    best_acc = 0.0
    tree, gains = _grow(X[fit_rows], y[fit_rows], max(grid), columns)
    reports: Dict[int, EvaluationReport] = {}  # by the cut's leaf count
    for kappa in grid:
        cut = DecisionTreeModel(_cut(tree.root, gains, math.log(kappa)), tree.columns, kappa)
        if cut.leaf_count not in reports:
            reports[cut.leaf_count] = evaluate(cut, X[held_rows], y[held_rows])
        rep = reports[cut.leaf_count]
        holdout_scores[kappa] = rep.avg_log_score
        if rep.avg_log_score > best_score:
            best_score = rep.avg_log_score
            best_kappa = kappa
            best_acc = rep.accuracy
    model = grow_tree(X, y, best_kappa, columns=columns)
    return TuningResult(
        kappa=best_kappa,
        model=model,
        holdout_scores=holdout_scores,
        holdout_accuracy=best_acc,
        split_seed=split_seed,
    )


@dataclass
class Dataset:
    """Labeled run summaries: one row per uncensored run."""

    columns: List[str]
    X: np.ndarray
    runtime: np.ndarray
    is_short: np.ndarray
    censored: np.ndarray
    divisor: np.ndarray
    median: float
    provenance: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n_rows = len(self.runtime)
        width = -1 if n_rows else len(self.columns)
        self.X = np.asarray(self.X, dtype=float).reshape(n_rows, width)
        self.runtime = np.asarray(self.runtime, dtype=np.int64)
        self.is_short = np.asarray(self.is_short, dtype=bool)
        self.censored = np.asarray(self.censored, dtype=bool)
        self.divisor = np.asarray(self.divisor, dtype=float)

    @property
    def size(self) -> int:
        return int(self.runtime.size)

    @property
    def scaled_runtime(self) -> np.ndarray:
        """Runtime divided by the per-row divisor (1.0 outside multi mode)."""
        return self.runtime / self.divisor

    def subset(self, mask: np.ndarray) -> "Dataset":
        mask = np.asarray(mask, dtype=bool)
        return Dataset(
            columns=list(self.columns),
            X=self.X[mask],
            runtime=self.runtime[mask],
            is_short=self.is_short[mask],
            censored=self.censored[mask],
            divisor=self.divisor[mask],
            median=self.median,
            provenance=dict(self.provenance),
        )

    def relabeled(self, median: float) -> "Dataset":
        out = Dataset(
            columns=list(self.columns),
            X=self.X,
            runtime=self.runtime,
            is_short=self.scaled_runtime < median,
            censored=self.censored,
            divisor=self.divisor,
            median=float(median),
            provenance=dict(self.provenance),
        )
        return out


@dataclass
class CascadeEntry:
    """One stage of the cascade: runs longer than threshold, re-split."""

    threshold: float
    dataset: Optional[Dataset]
    skipped: bool
    reason: str = ""


def cascade_datasets(
    dataset: Dataset, thresholds: Sequence[float], min_rows: int = 50
) -> List[CascadeEntry]:
    """Derive per-threshold sub-datasets for conditional length prediction.

    Each stage keeps rows with runtime strictly above its threshold and
    relabels them by the median of the subset's scaled runtimes, the rule
    Dataset.relabeled applies to test rows.  Stages smaller than min_rows
    are skipped with a reason instead of producing unstable models.
    """
    out: List[CascadeEntry] = []
    for t in thresholds:
        mask = dataset.runtime > t
        k = int(mask.sum())
        if k < min_rows:
            out.append(
                CascadeEntry(
                    threshold=float(t),
                    dataset=None,
                    skipped=True,
                    reason=f"only {k} rows above {t}, need {min_rows}",
                )
            )
            continue
        sub = dataset.subset(mask)
        sub = sub.relabeled(label_by_median(sub.scaled_runtime)[0])
        out.append(CascadeEntry(threshold=float(t), dataset=sub, skipped=False))
    return out
