"""Restart policies over empirical run-time distributions.

Heavy-tailed run-time distributions make restarts profitable.  This module
computes the expected cost of fixed-cutoff restarts exactly from an empirical
distribution, provides the Luby universal schedule, and models a dynamic
policy that observes a run for O steps, asks a predictor whether the run
would finish within L steps, and restarts immediately on a LONG prediction.

The dynamic policy's expected number of runs is exact,
    E(N) = 1 / (A * (P_L - P_O) + P_O),
while its per-run cost is bounded above by
    E_ub(R) = O + (L - O) * (A * P_L + (1 - A) * (1 - P_L)),
so E(N) * E_ub(R) bounds the expected total cost.  Impossible configurations
yield the UNBOUNDED value rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .seeds import derive_seed
from . import fc_kernel
from . import learn as _learn

UNBOUNDED = math.inf
MAX_LENGTH = 2**53  # float64 holds every whole number up to here exactly
MAX_TOTAL = 2**63 - 1  # the int64 prefix sums of the lengths stay exact up to here


def is_unbounded(x: float) -> bool:
    return math.isinf(x) and x > 0


def _scalar(x):
    """A numpy scalar as the Python number a report can hold; arrays pass through."""
    return x.item() if np.ndim(x) == 0 else x


@dataclass(frozen=True)
class EmpiricalRTD:
    """The runs a policy is priced on.

    lengths holds the run lengths in draw order: a trial's run is a uniform
    draw of an index into it (Generator.integers over its size).  Without a
    dataset they are sorted; with one they are its runtimes in row order, and
    a drawn index is also the row whose features a model predictor reads.
    sorted holds them in ascending order, for the step CDF.  provenance is
    the header of the file they were read from, if any."""

    lengths: np.ndarray
    sorted: np.ndarray
    dataset: Optional["_learn.Dataset"]
    provenance: Dict

    def __init__(self, lengths: Sequence[int], provenance: Optional[Dict] = None,
                 dataset: Optional["_learn.Dataset"] = None):
        try:
            drawn = np.ascontiguousarray(lengths, dtype=np.int64)
        except OverflowError as exc:
            raise ValueError(f"run lengths must lie between 0 and 2**53: {exc}") from exc
        arr = np.sort(drawn)
        if arr.size == 0:
            raise ValueError("an empirical distribution needs at least one run")
        if arr[0] < 0:
            raise ValueError("run lengths cannot be negative")
        if arr[-1] > MAX_LENGTH:
            raise ValueError(
                f"run lengths must be at most 2**53, got {int(arr[-1])}:"
                " float64 costs are no longer exact past it"
            )
        total = sum(arr.tolist())  # Python ints, exact where an int64 sum would wrap
        if total > MAX_TOTAL:
            raise ValueError(
                f"run lengths must sum to at most 2**63 - 1, got {total}:"
                " their int64 prefix sums would wrap"
            )
        object.__setattr__(self, "lengths", arr if dataset is None else drawn)
        object.__setattr__(self, "sorted", arr)
        object.__setattr__(self, "dataset", dataset)
        object.__setattr__(self, "provenance", provenance or {})
        object.__setattr__(self, "_prefix", np.concatenate(([0], np.cumsum(arr))))

    @property
    def size(self) -> int:
        return int(self.lengths.size)

    @property
    def min_length(self) -> int:
        return int(self.sorted[0])

    def cdf(self, t):
        """P(T <= t) with a step at every observed length; elementwise over
        an array t."""
        return _scalar(np.searchsorted(self.sorted, t, side="right") / self.size)

    def expected_truncated(self, c):
        """E[min(T, c)]; elementwise over an array c of at most 2**63 - 1."""
        k = np.searchsorted(self.sorted, c, side="right")
        return _scalar((self._prefix[k] + c * (self.size - k)) / self.size)


def expected_time_fixed(rtd: EmpiricalRTD, cutoff: int) -> float:
    """Expected total steps of restarting every cutoff steps, from the step CDF.

    Equals E[min(T, c)] / P(T <= c); UNBOUNDED when no observed run finishes
    within the cutoff.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    p = rtd.cdf(cutoff)
    if p == 0.0:
        return UNBOUNDED
    # any cutoff past the longest run truncates nothing
    return rtd.expected_truncated(min(cutoff, MAX_LENGTH + 1)) / p


def optimal_fixed_cutoff(rtd: EmpiricalRTD) -> Tuple[int, float]:
    """Minimize expected_time_fixed over cutoffs; returns (c*, cost).

    Between observed lengths the truncated mean grows while the success
    probability stays flat, so only the distinct observed lengths can be
    optimal; ties resolve to the smallest cutoff.  Zero-length runs (solved
    by propagation alone) shift their candidate to the minimum legal cutoff
    of 1.
    """
    candidates = np.unique(np.maximum(rtd.sorted, 1))
    cost = rtd.expected_truncated(candidates) / rtd.cdf(candidates)
    i = int(np.argmin(cost))  # first minimum: smallest cutoff wins ties
    return int(candidates[i]), float(cost[i])


def dynamic_expected_runs(accuracy: float, p_obs: float, p_limit: float) -> float:
    """Exact expected number of runs of the observe-then-predict policy."""
    _check_prob(accuracy, "accuracy")
    _check_prob(p_obs, "p_obs")
    _check_prob(p_limit, "p_limit")
    if p_limit < p_obs:
        raise ValueError("p_limit must be >= p_obs (L is past O)")
    denom = accuracy * (p_limit - p_obs) + p_obs
    if denom == 0.0:
        return UNBOUNDED
    return 1.0 / denom


def dynamic_expected_run_length_ub(
    observe: float, limit: float, accuracy: float, p_limit: float
) -> float:
    """Upper bound on the expected steps spent in a single (possibly
    restarted) run of the dynamic policy."""
    _check_prob(accuracy, "accuracy")
    _check_prob(p_limit, "p_limit")
    if not observe < limit:
        raise ValueError("need observe < limit")
    cont = accuracy * p_limit + (1.0 - accuracy) * (1.0 - p_limit)
    if math.isinf(limit):
        return UNBOUNDED if cont > 0 else float(observe)
    return observe + (limit - observe) * cont


def dynamic_expected_total_ub(
    observe: float, limit: float, accuracy: float, p_obs: float, p_limit: float
) -> float:
    """Upper bound on expected total steps: E(N) times the per-run bound."""
    runs = dynamic_expected_runs(accuracy, p_obs, p_limit)
    if is_unbounded(runs):
        return UNBOUNDED
    per_run = dynamic_expected_run_length_ub(observe, limit, accuracy, p_limit)
    if is_unbounded(per_run):
        return UNBOUNDED
    return runs * per_run


def _check_prob(x: float, name: str) -> None:
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {x}")


def _check_window(observe: int, limit: float) -> None:
    """A dynamic policy observes for at least one step and gives up later."""
    if observe < 1:
        raise ValueError(f"observe must be >= 1, got {observe}")
    if not observe < limit:
        raise ValueError("need observe < limit")


def _window_text(observe: int, limit: float) -> str:
    """The `dynamic:O=..,L=..,` head of a dynamic policy's description."""
    lim = "inf" if math.isinf(limit) else int(limit)
    return f"dynamic:O={observe},L={lim},"


# The run-length quantiles scan_dynamic_limits tries as give-up points.
LIMIT_QUANTILES = (0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99, 1.0)


def scan_dynamic_limits(
    runs: EmpiricalRTD, observe: int, accuracy: float
) -> List[Dict[str, float]]:
    """Analytic grid scan of the give-up point L over the distinct values of
    LIMIT_QUANTILES.

    Returns one entry per candidate L > observe with the exact expected run
    count and the upper bound on expected total cost, sorted by the bound.
    """
    if observe < 1:
        raise ValueError(f"observe must be >= 1, got {observe}")
    predictor = SyntheticPredictor(accuracy)
    out = []
    for limit in np.unique(np.quantile(runs.sorted, LIMIT_QUANTILES).astype(np.int64)):
        if limit <= observe:
            continue
        analytic = DynamicPolicy(observe, int(limit), predictor).analytic(runs)
        out.append({
            "limit": int(limit),
            "expected_runs": analytic.expected_runs,
            "expected_total_ub": analytic.expected_steps,
        })
    out.sort(key=lambda e: e["expected_total_ub"])
    return out


# -- policies --------------------------------------------------------------
#
# Every policy offers describe(), analytic(runs) -> Analytic, what is known
# in closed form on an EmpiricalRTD, and _rounds(runs), the fields of the
# kernel's rounds_state that price its rounds (see simulate_policy).


class Analytic(NamedTuple):
    """Closed-form figures of a policy on its runs; None where unknown.

    success_probability is the chance that one run succeeds; expected_runs
    and expected_steps are exact for FIXED, and exact E(N) with an upper bound
    on steps for DYNAMIC with a synthetic predictor.
    """

    success_probability: Optional[float] = None
    expected_runs: Optional[float] = None
    expected_steps: Optional[float] = None


@dataclass(frozen=True)
class FixedPolicy:
    """Restart unconditionally after cutoff steps."""

    cutoff: int

    def __post_init__(self) -> None:
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")

    def describe(self) -> str:
        return f"fixed:{self.cutoff}"

    def _rounds(self, runs: EmpiricalRTD) -> Dict:
        return {"cutoff": self.cutoff}

    def analytic(self, runs: EmpiricalRTD) -> Analytic:
        p = runs.cdf(self.cutoff)
        return Analytic(
            p, UNBOUNDED if p == 0 else 1.0 / p, expected_time_fixed(runs, self.cutoff)
        )


@dataclass(frozen=True)
class LubyPolicy:
    """Restart after scale * t_i steps on the i-th run, where t_i is the
    i-th term (1-based) of the Luby sequence 1,1,2,1,1,2,4,...: t_i is
    2**(k-1) when i == 2**k - 1, and t_(i - 2**(k-1) + 1) when
    2**(k-1) <= i < 2**k - 1.  The kernel computes the terms."""

    scale: int = 1

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale}")

    def describe(self) -> str:
        return f"luby:{self.scale}"

    def _rounds(self, runs: EmpiricalRTD) -> Dict:
        return {"cutoff": self.scale, "luby": 1}

    def analytic(self, runs: EmpiricalRTD) -> Analytic:
        # Luby cutoffs grow without bound, so any finite run length is reachable.
        return Analytic()


class SyntheticPredictor:
    """Oracle that emits the true within-L label with a given accuracy."""

    def __init__(self, accuracy: float):
        _check_prob(accuracy, "accuracy")
        self.accuracy = accuracy

    def _rounds(self, runs: EmpiricalRTD) -> Dict:
        # the true label, flipped where Generator.random() >= accuracy
        return {"synthetic": 1, "accuracy": self.accuracy}

    def analytic(self, policy: "DynamicPolicy", runs: EmpiricalRTD) -> Analytic:
        a = self.accuracy
        p_o = runs.cdf(policy.observe)
        p_l = 1.0 if math.isinf(policy.limit) else runs.cdf(policy.limit)
        return Analytic(
            a * (p_l - p_o) + p_o,
            dynamic_expected_runs(a, p_o, p_l),
            dynamic_expected_total_ub(policy.observe, policy.limit, a, p_o, p_l),
        )

    def describe(self) -> str:
        return f"oracle(accuracy={self.accuracy})"


class ModelPredictor:
    """Applies a trained tree to the drawn rows of an EmpiricalRTD's dataset.

    The tree's call on a row depends on the row alone, so it is made once for
    every row of a dataset and the drawn rows look theirs up."""

    def __init__(self, model: "_learn.DecisionTreeModel"):
        self.model = model
        self._calls: Tuple[Optional["_learn.Dataset"], Optional[np.ndarray]] = (None, None)

    def _short_rows(self, dataset: "_learn.Dataset") -> np.ndarray:
        """Whether the tree calls each row of dataset SHORT."""
        if self._calls[0] is not dataset:
            self._calls = (dataset, _learn.predict_batch(self.model, dataset.X) > 0.5)
        return self._calls[1]

    def _rounds(self, runs: EmpiricalRTD) -> Dict:
        if runs.dataset is None:
            raise ValueError("these runs carry no features to predict from")
        return {"short_rows": self._short_rows(runs.dataset).view(np.uint8)}

    def analytic(self, policy: "DynamicPolicy", runs: EmpiricalRTD) -> Analytic:
        """Success probability over the rows of the runs' dataset; nothing else."""
        ds = runs.dataset
        if ds is None:
            return Analytic()
        pred = self._short_rows(ds)
        ok = (ds.runtime <= policy.observe) | (pred & (ds.runtime <= policy.limit))
        return Analytic(float(ok.mean()))

    def describe(self) -> str:
        return "model"


@dataclass(frozen=True)
class DynamicPolicy:
    """Observe each run for `observe` steps; if unfinished, continue only on
    a SHORT prediction, giving up at `limit` steps; otherwise restart."""

    observe: int
    limit: float  # may be math.inf
    predictor: Union[SyntheticPredictor, ModelPredictor]

    def __post_init__(self) -> None:
        _check_window(self.observe, self.limit)

    def describe(self) -> str:
        return _window_text(self.observe, self.limit) + self.predictor.describe()

    def _rounds(self, runs: EmpiricalRTD) -> Dict:
        return {"cutoff": self.observe, "limit": float(self.limit),
                **self.predictor._rounds(runs)}

    def analytic(self, runs: EmpiricalRTD) -> Analytic:
        return self.predictor.analytic(self, runs)


Policy = Union[FixedPolicy, LubyPolicy, DynamicPolicy]


def DatasetSource(dataset: "_learn.Dataset") -> EmpiricalRTD:
    """The runs of dataset's uncensored rows, drawn in row order."""
    rows = dataset.subset(~dataset.censored)
    return EmpiricalRTD(rows.runtime, rows.provenance, rows)


def RtdSource(rtd: EmpiricalRTD) -> EmpiricalRTD:
    """rtd itself: the name perfbench/layers.py resamples a run-length file by."""
    return rtd


# -- simulation ------------------------------------------------------------


@dataclass
class PolicyStats:
    """Analytic and simulated cost of one policy.

    expected_runs/expected_steps are analytic where a formula exists (exact
    for FIXED, exact E(N) and an upper bound on steps for DYNAMIC); the mc_*
    fields are Monte Carlo estimates over independent trials.  unbounded is
    set when the policy can never succeed or a trial exceeded the run budget.
    """

    policy: str
    trials: int
    expected_runs: Optional[float]
    expected_steps: Optional[float]
    mc_mean_cost: float
    mc_se_cost: float
    mc_mean_runs: float
    mc_se_runs: float
    percentiles: Dict[str, float] = field(default_factory=dict)
    unbounded: bool = False


# The percentiles of the total cost over trials that PolicyStats reports.
PERCENTILES = (50, 90, 99)


def simulate_policy(
    runs: EmpiricalRTD,
    policy: Policy,
    trials: int,
    master_seed: int,
    run_budget: int = 1_000_000,
) -> PolicyStats:
    """Monte Carlo the policy to completion over independent trials.

    Each trial repeats runs under the policy until one succeeds, accumulating
    every step spent (runs killed at a cutoff or restarted at the observation
    point still cost what was watched).  Trials exceeding run_budget runs are
    reported as UNBOUNDED rather than looping forever.  Deterministic per
    master seed and independent of scheduling.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    # A policy that cannot succeed on its support loops forever; detect the
    # analytic cases up front instead of burning the run budget.
    analytic = policy.analytic(runs)
    unbounded = analytic.success_probability == 0.0

    total_cost = np.zeros(trials, dtype=float)
    total_runs = np.zeros(trials, dtype=np.int64)
    if not unbounded:
        stream = fc_kernel.pcg64(derive_seed(master_seed, "policy", policy.describe()))
        rounds = _price_rounds(runs, policy, stream, total_cost, total_runs, run_budget)
        unbounded = rounds.n_active > 0

    if unbounded:
        mc_mean = UNBOUNDED
        mc_se = UNBOUNDED
        mean_runs = UNBOUNDED
        se_runs = UNBOUNDED
        pct = {f"p{p}": UNBOUNDED for p in PERCENTILES}
    else:
        mc_mean = float(total_cost.mean())
        mc_se = float(total_cost.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        mean_runs = float(total_runs.mean())
        se_runs = (
            float(total_runs.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        )
        values = np.percentile(total_cost, PERCENTILES)
        pct = {f"p{p}": float(v) for p, v in zip(PERCENTILES, values)}

    return PolicyStats(
        policy=policy.describe(),
        trials=trials,
        expected_runs=analytic.expected_runs,
        expected_steps=analytic.expected_steps,
        mc_mean_cost=mc_mean,
        mc_se_cost=mc_se,
        mc_mean_runs=mean_runs,
        mc_se_runs=se_runs,
        percentiles=pct,
        unbounded=unbounded,
    )


# Draws per kernel call (about 40 ms at most), so that a long simulation
# returns to Python, and to Ctrl-C, many times a second.
_CALL_DRAWS = 1 << 24


def _price_rounds(runs, policy, stream, total_cost, total_runs, run_budget):
    """Run every trial to its first win in the kernel (pcg64_price_rounds),
    adding its steps to total_cost and the round it won in to total_runs,
    and advance stream, a kernel pcg64_state, past the draws of the numpy
    round loop.  Returns the kernel's rounds_state: n_active trials were
    still running after run_budget rounds; live_draws and dead_draws count
    the rows drawn in priced rounds and skipped for rounds that no run can
    win.  A skip costs O(log dead_draws) when numpy rejects no word for this
    many rows ((2**32 - rows) % rows == 0, as for 64 rows), and a step per
    word otherwise."""
    kernel = fc_kernel.load()
    ffi, lib = kernel.ffi, kernel.lib
    trials = total_cost.size
    fields = policy._rounds(runs)
    short_rows = fields.pop("short_rows", None)
    buffers = [
        ("lengths", "long long[]", runs.lengths),
        ("active", "long long[]", np.arange(trials, dtype=np.int64)),
        ("drawn", "uint32_t[]", np.empty(trials if fields.get("synthetic") else 0, np.uint32)),
        ("total_cost", "double[]", total_cost),
        ("total_runs", "long long[]", total_runs),
    ]
    if short_rows is not None:
        buffers.append(("short_rows", "uint8_t[]", short_rows))
    views = {name: ffi.from_buffer(ctype, arr) for name, ctype, arr in buffers}
    # A cutoff, scale or observation point past MAX_LENGTH prices as
    # MAX_LENGTH + 1 does, and no trial outlives 2**62 rounds.
    state = ffi.new("rounds_state *", {
        **fields, **views,
        "cutoff": min(fields["cutoff"], MAX_LENGTH + 1),
        "rows": runs.size,
        "shortest": runs.min_length,
        "n_active": trials,
        "run_budget": min(run_budget, 2**62),
    })
    while lib.pcg64_price_rounds(state, stream, _CALL_DRAWS):
        pass
    return state
