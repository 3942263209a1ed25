"""Search-state features and run summaries.

The solver snapshots a fixed vector of run-time features at every choice
point: the 14 base features of REGISTRY, in that order, computed by trace_row
in _fc_kernel.c (the test suite's `snapshot` in tests/reference.py reads the
same row off its Python search state).  A finished (or horizon-truncated)
trace is then compressed into summary statistics per feature: initial
value, final value, mean, min, max, plus mean/min/max of the first
differences and the number of strict sign alternations in those
differences.  Summaries are what the learner consumes.  The kernel keeps
the same statistics while it traces a run and writes the summary itself
(solver.KernelState.summary), which is what `dataset` reads; summarize is
its reference, and summarizes traces held in Python.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

STAT_NAMES: Tuple[str, ...] = (
    "init",
    "final",
    "avg",
    "min",
    "max",
    "d_avg",
    "d_min",
    "d_max",
    "d_signchg",
)

# Magnitude statistics are rescaled in multi-instance mode; the sign-change
# count is an event count and is never rescaled.
_SCALED_STATS = ("init", "final", "avg", "min", "max", "d_avg", "d_min", "d_max")


@dataclass(frozen=True)
class FeatureSpec:
    """One base feature: its name, whether it grows with instance size, doc."""

    name: str
    scales_with_size: bool
    doc: str


# The base features, in the order of every traced row.
REGISTRY: Tuple[FeatureSpec, ...] = (
    FeatureSpec("backtracks", False, "branch assignments undone so far"),
    FeatureSpec("depth", True, "branch assignments currently on the stack"),
    FeatureSpec("max_depth", True, "deepest branch assignment reached so far"),
    FeatureSpec(
        "min_leaf_depth",
        True,
        "shallowest dead end seen so far; current depth before the first dead end",
    ),
    FeatureSpec("avg_node_depth", True, "mean depth over all choice points so far"),
    FeatureSpec("open_cells", True, "unassigned cells"),
    FeatureSpec("avg_domain", False, "mean domain size over open cells"),
    FeatureSpec("min_domain", False, "smallest domain over open cells"),
    FeatureSpec("domain_total", True, "summed domain sizes over open cells"),
    FeatureSpec(
        "line_var", True, "population variance of open-cell counts over all 2n lines"
    ),
    FeatureSpec("open_per_line", True, "open cells divided by the order"),
    FeatureSpec("forced_assignments", True, "cells assigned by propagation so far"),
    FeatureSpec("alldiff_prunings", True, "values removed by matching filtering so far"),
    FeatureSpec("contradictions", False, "dead ends hit so far"),
)


def default_registry(pooled_line_variance: bool = True) -> Tuple[FeatureSpec, ...]:
    """REGISTRY, whose line_var pools the open-cell counts of all 2n rows and
    columns.  pooled_line_variance=True names that registry; there is no
    other, so False raises ValueError."""
    if not pooled_line_variance:
        raise ValueError("only the pooled line-variance registry exists")
    return REGISTRY


def registry_hash(registry: Sequence[FeatureSpec] = REGISTRY) -> str:
    """Stable fingerprint of a registry: feature names, flags, stat names."""
    h = hashlib.blake2b(digest_size=16)
    for spec in registry:
        h.update(f"{spec.name}:{int(spec.scales_with_size)};".encode("ascii"))
    h.update("|".join(STAT_NAMES).encode("ascii"))
    return h.hexdigest()


def summary_columns(registry: Sequence[FeatureSpec] = REGISTRY) -> List[str]:
    """Column names, feature-major: <feature>__<stat>."""
    return [f"{spec.name}__{stat}" for spec in registry for stat in STAT_NAMES]


@lru_cache(maxsize=None)
def _scaled_mask(registry: Tuple[FeatureSpec, ...]) -> np.ndarray:
    """True at the summary columns that normalize_for_multi rescales."""
    return np.array(
        [spec.scales_with_size and stat in _SCALED_STATS
         for spec in registry for stat in STAT_NAMES],
        dtype=bool,
    )


@dataclass(frozen=True)
class SummaryVector:
    """Summary statistics of one run's trace, in summary_columns order.

    divisor records the instance-size normalization applied in multi-instance
    mode; 1.0 means raw values.
    """

    values: np.ndarray
    censored: bool = False
    divisor: float = 1.0


def summarize(
    trace: Sequence[Sequence[float]],
    horizon: int,
    registry: Sequence[FeatureSpec] = REGISTRY,
    censored: bool = False,
) -> SummaryVector:
    """Compress a trace into per-feature summary statistics.

    Only the first min(horizon, len(trace)) entries are used, so a summary is
    unchanged by anything the run did after the observation horizon.  Traces
    shorter than 2 entries have no differences and are rejected.
    """
    if horizon < 2:
        raise ValueError(f"horizon must be >= 2, got {horizon}")
    m = min(horizon, len(trace))
    if m < 2:
        raise ValueError(f"need at least 2 trace entries, got {len(trace)}")
    arr = np.asarray(trace[:m], dtype=float)
    if arr.ndim != 2 or arr.shape[1] != len(registry):
        raise ValueError(
            f"trace width {arr.shape} does not match registry of {len(registry)}"
        )
    diffs = np.diff(arr, axis=0)
    # rows follow STAT_NAMES; the transpose flattens feature-major
    stats = np.stack([
        arr[0],
        arr[-1],
        arr.mean(axis=0),
        arr.min(axis=0),
        arr.max(axis=0),
        diffs.mean(axis=0),
        diffs.min(axis=0),
        diffs.max(axis=0),
        _sign_changes(diffs),
    ])
    return SummaryVector(values=stats.T.ravel(), censored=censored, divisor=1.0)


def _sign_changes(diffs: np.ndarray) -> np.ndarray:
    """Count strict sign alternations column-wise; zeros never count."""
    if diffs.shape[0] < 2:
        return np.zeros(diffs.shape[1])
    signs = np.sign(diffs)
    return (signs[1:] * signs[:-1] < 0).sum(axis=0).astype(float)


def normalize_for_multi(
    summary: SummaryVector,
    post_propagation_size: int,
    registry: Sequence[FeatureSpec] = REGISTRY,
) -> SummaryVector:
    """Divide size-scale magnitude statistics by the post-propagation size.

    Makes summaries comparable across instances of different effective size.
    Sign-change counts are left untouched, as are features whose registry
    flag marks them size-free.  The divisor is recorded on the result.
    """
    if post_propagation_size < 1:
        raise ValueError(
            f"post_propagation_size must be >= 1, got {post_propagation_size}"
        )
    div = float(post_propagation_size)
    values = summary.values.copy()
    values[_scaled_mask(tuple(registry))] /= div
    return SummaryVector(values=values, censored=summary.censored, divisor=div)
