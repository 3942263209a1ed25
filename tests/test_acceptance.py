"""Acceptance suite: one test per shipped guarantee, each printing a PASS or
FAIL line with the measured numbers.

The desk-scale checks drive the real command pipeline on a fixed hard
instance, so this file takes several minutes; run it with `-s` to watch the
per-criterion lines appear.
"""

import itertools
import math
import sys
import time

import numpy as np
import pytest

from restartlab.cli import EXIT_OK, main
from restartlab.harness import find_heavy_tail_instance
from restartlab.io import read_dataset, read_model, read_rtd
from restartlab.latin import (
    BALANCED,
    HOLE,
    HoleSpec,
    PartialLatinSquare,
    UNBALANCED,
    generate_complete,
    poke_holes,
)
from restartlab.learn import (
    grow_tree,
    marginal_model,
    evaluate,
)
from restartlab.policy import (
    DynamicPolicy,
    EmpiricalRTD,
    LubyPolicy,
    RtdSource,
    SyntheticPredictor,
    dynamic_expected_runs,
    dynamic_expected_total_ub,
    expected_time_fixed,
    optimal_fixed_cutoff,
    simulate_policy,
)
from restartlab.seeds import derive_seed
from restartlab.solver import (
    ALLDIFF_REGIN,
    FORWARD_CHECK,
    SOLVED,
    SolverConfig,
    solve,
)

from reference import (
    count_completions,
    iter_completions,
    leaf_log_marginal,
    luby_term,
    regin_filter,
    validate,
)

# Desk-scale study configuration: a fixed hard instance family and the
# observation settings the trained predictor is exercised at.
DESK_SEED = 81
DESK_ORDER = 18
DESK_HOLES = 126
DESK_HORIZON = 50
DESK_CUTOFF = 100000
DESK_TRAIN_RUNS = 4000
DESK_TEST_RUNS = 1000


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, file=sys.stderr, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def desk(tmp_path_factory):
    """Dataset -> train -> eval on the desk instance, through the CLI."""
    root = tmp_path_factory.mktemp("desk")
    t0 = time.monotonic()
    code = main([
        "dataset",
        "--order", str(DESK_ORDER),
        "--holes", str(DESK_HOLES),
        "--balanced",
        "--runs", str(DESK_TRAIN_RUNS),
        "--test-runs", str(DESK_TEST_RUNS),
        "--horizon", str(DESK_HORIZON),
        "--cutoff", str(DESK_CUTOFF),
        "--seed", str(DESK_SEED),
        "--out-prefix", str(root / "desk"),
    ])
    assert code == EXIT_OK
    code = main(["train", str(root / "desk_train.csv"),
                 "-o", str(root / "desk_model.json")])
    assert code == EXIT_OK
    elapsed = time.monotonic() - t0
    train = read_dataset(str(root / "desk_train.csv"))
    test = read_dataset(str(root / "desk_test.csv"))
    model = read_model(str(root / "desk_model.json"))
    rtd = read_rtd(str(root / "desk_rtd.txt"))
    return {
        "root": root,
        "train": train,
        "test": test,
        "model": model,
        "rtd": rtd,
        "elapsed": elapsed,
    }


def brute_force_order3_completions():
    """Count empty 3x3 fillings directly from row permutations."""
    count = 0
    perms = list(itertools.permutations((1, 2, 3)))
    for r0 in perms:
        for r1 in perms:
            if any(a == b for a, b in zip(r0, r1)):
                continue
            for r2 in perms:
                if any(a == b for a, b in zip(r0, r2)):
                    continue
                if any(a == b for a, b in zip(r1, r2)):
                    continue
                count += 1
    return count


class TestCriterion1:
    def test_generation_valid_and_counted(self):
        t0 = time.monotonic()
        bad = 0
        for n in range(1, 6):
            for seed in range(100):
                if validate(generate_complete(n, seed=seed)):
                    bad += 1
        empty3 = PartialLatinSquare.from_rows([[HOLE] * 3] * 3)
        counted = count_completions(empty3)
        expected = brute_force_order3_completions()
        elapsed = time.monotonic() - t0
        ok = bad == 0 and counted == 12 and expected == 12 and elapsed < 10
        report(1, "square generation", ok,
               f"500 squares, {bad} invalid; 3x3 completions {counted} "
               f"vs {expected} enumerated; {elapsed:.1f}s")


class TestCriterion2:
    def test_solver_soundness_and_propagation_support(self):
        t0 = time.monotonic()
        failures = 0
        orders = [2, 3, 4, 5]
        for k in range(50):
            order = orders[k % len(orders)]
            square = generate_complete(order, seed=1000 + k)
            spec = HoleSpec(mode=BALANCED, holes_per_line=max(1, order - 2))
            inst = poke_holes(square, spec, seed=2000 + k)
            for s in range(20):
                rec = solve(inst, SolverConfig(propagation=ALLDIFF_REGIN), seed=s)
                good = (
                    rec.outcome == SOLVED
                    and rec.assignment is not None
                    and rec.assignment.is_complete()
                    and not validate(rec.assignment)
                )
                failures += 0 if good else 1
        overpruned = 0
        for k in range(12):
            order = 2 + k % 3
            square = generate_complete(order, seed=3000 + k)
            spec = HoleSpec(mode=BALANCED, holes_per_line=max(1, order - 1))
            inst = poke_holes(square, spec, seed=4000 + k)
            comps = list(iter_completions(inst))
            if not comps:
                continue
            overpruned += count_unsupported_prunings(inst, comps)
        elapsed = time.monotonic() - t0
        ok = failures == 0 and overpruned == 0 and elapsed < 60
        report(2, "solver soundness", ok,
               f"1000 runs, {failures} bad; {overpruned} supported values "
               f"pruned; {elapsed:.1f}s")


def count_unsupported_prunings(inst, comps):
    """Filter each row/column of the root instance and count pruned values
    that some full completion actually uses."""
    n = inst.order
    bad = 0
    for axis in ("row", "col"):
        for i in range(n):
            doms, holes = [], []
            for j in range(n):
                r, c = (i, j) if axis == "row" else (j, i)
                v = inst.cells[r][c]
                if v is HOLE:
                    used = {
                        inst.cells[r][k] for k in range(n)
                    } | {inst.cells[k][c] for k in range(n)}
                    doms.append(set(range(1, n + 1)) - {u for u in used if u})
                    holes.append((j, r, c))
                else:
                    doms.append({v})
            filtered = regin_filter(doms)
            if filtered is None:
                return len(comps)  # solvable line reported dead
            for k, r, c in holes:
                supported = {comp.cells[r][c] for comp in comps}
                bad += len(supported - filtered[k])
    return bad


class TestCriterion3:
    def test_desk_dataset_censoring_and_labels(self, desk):
        train, test = desk["train"], desk["test"]
        u = ~train.censored
        min_rt = int(min(train.runtime.min(), test.runtime.min()))
        exact = bool(
            (train.is_short[u] == (train.scaled_runtime[u] < train.median)).all()
            and not train.is_short[train.censored].any()
            and (test.is_short == ((test.scaled_runtime < train.median)
                                   & ~test.censored)).all()
        )
        balance = float(train.is_short[u].mean())
        ok = min_rt >= DESK_HORIZON and exact and 0.45 <= balance <= 0.55
        report(3, "dataset bookkeeping", ok,
               f"min runtime {min_rt} (horizon {DESK_HORIZON}); labels exact:"
               f" {exact}; train balance {balance:.3f}")


class TestCriterion4:
    def test_marginal_on_balanced_test_set(self, desk):
        train, test = desk["train"], desk["test"]
        base = marginal_model(train.is_short[~train.censored])
        u = test.subset(~test.censored)
        short_idx = np.where(u.is_short)[0]
        long_idx = np.where(~u.is_short)[0]
        m = min(len(short_idx), len(long_idx))
        pick = np.r_[short_idx[:m], long_idx[:m]]
        rep = evaluate(base, u.X[pick], u.is_short[pick])
        ok = (abs(rep.avg_log_score - math.log(0.5)) <= 0.007
              and 0.45 <= rep.accuracy <= 0.55)
        report(4, "marginal baseline", ok,
               f"balanced n={2 * m}: log {rep.avg_log_score:.4f} vs "
               f"{math.log(0.5):.4f}, accuracy {rep.accuracy:.3f}")


class TestCriterion5:
    def test_learned_model_beats_marginal(self, desk):
        train, test, model = desk["train"], desk["test"], desk["model"]
        u_train = train.subset(~train.censored)
        u_test = test.subset(~test.censored)
        learned = evaluate(model, u_test.X, u_test.is_short)
        base = marginal_model(u_train.is_short)
        marginal = evaluate(base, u_test.X, u_test.is_short)
        ok = (
            u_train.size >= 800
            and u_test.size >= 200
            and learned.accuracy >= marginal.accuracy + 0.08
            and learned.avg_log_score >= -0.65
            and desk["elapsed"] <= 1800
        )
        report(5, "learned predictor", ok,
               f"rows {u_train.size}/{u_test.size}; accuracy "
               f"{learned.accuracy:.3f} vs marginal {marginal.accuracy:.3f}"
               f" (need +0.08); log {learned.avg_log_score:.4f} (need"
               f" >= -0.65); pipeline {desk['elapsed']:.0f}s")


class TestCriterion6:
    def test_tree_score_closed_forms(self, desk):
        val = leaf_log_marginal(1, 1)
        closed = abs(val - math.log(1 / 6)) <= 1e-12

        X = np.array([[0.0], [1.0]])
        y = np.array([True, False])
        eps = 0.01
        split_above = grow_tree(X, y, kappa=2 / 3 + eps).leaf_count == 2
        leaf_below = grow_tree(X, y, kappa=2 / 3 - eps).leaf_count == 1

        collapse = True
        rng = np.random.default_rng(0)
        datasets = [
            (X, y),
            (rng.normal(size=(40, 3)), rng.random(40) < 0.5),
            (np.arange(30, dtype=float).reshape(-1, 1), np.arange(30) % 2 == 0),
        ]
        u = desk["train"].subset(~desk["train"].censored)
        datasets.append((u.X[:200], u.is_short[:200]))
        for Xd, yd in datasets:
            collapse &= grow_tree(np.asarray(Xd, float), np.asarray(yd, bool),
                                  kappa=1e-300).leaf_count == 1

        ok = closed and split_above and leaf_below and collapse
        report(6, "tree prior semantics", ok,
               f"leaf(1,1)={val:.12f} vs ln(1/6); split flips at 2/3"
               f" ({split_above}/{leaf_below}); kappa->0 single leaf on"
               f" {len(datasets)} datasets: {collapse}")


def lognormal_rtd():
    rng = np.random.default_rng(7)
    lengths = np.maximum(1, np.round(rng.lognormal(math.log(100), 1.0, 400)))
    return EmpiricalRTD(lengths.astype(int))


class TestCriterion7:
    def test_dynamic_formulas_match_simulation(self):
        t0 = time.monotonic()
        two_point = EmpiricalRTD([1] * 50 + [10 ** 6] * 50)
        logn = lognormal_rtd()
        grids = {
            "two_point": (two_point, [1, 2, 5], [10, 1000, 10 ** 6]),
            "lognormal": (logn, [20, 50, 100], [400, 1500, 40000]),
        }
        cells = 0
        bad_runs, bad_cost = [], []
        for name, (rtd, observes, limits) in grids.items():
            for acc, obs, lim in itertools.product(
                (0.6, 0.75, 0.9), observes, limits
            ):
                p_o = rtd.cdf(obs)
                p_l = rtd.cdf(lim)
                policy = DynamicPolicy(observe=obs, limit=float(lim),
                                       predictor=SyntheticPredictor(acc))
                stats = simulate_policy(RtdSource(rtd), policy, trials=10 ** 5,
                                        master_seed=1)
                runs = dynamic_expected_runs(acc, p_o, p_l)
                ub = dynamic_expected_total_ub(obs, lim, acc, p_o, p_l)
                cells += 1
                if abs(stats.mc_mean_runs - runs) > 3 * stats.mc_se_runs:
                    bad_runs.append((name, acc, obs, lim))
                if stats.mc_mean_cost > ub + 3 * stats.mc_se_cost:
                    bad_cost.append((name, acc, obs, lim))
        elapsed = time.monotonic() - t0
        ok = cells >= 27 and not bad_runs and not bad_cost and elapsed < 300
        report(7, "dynamic policy formulas", ok,
               f"{cells} cells; {len(bad_runs)} run-count misses,"
               f" {len(bad_cost)} cost bound misses; {elapsed:.0f}s")


class TestCriterion8:
    def test_optimal_cutoff_matches_brute_force(self):
        rng = np.random.default_rng(3)
        mismatches = 0
        for trial in range(12):
            n = int(rng.integers(5, 400))
            lengths = rng.integers(1, 10 ** 4, size=n)
            rtd = EmpiricalRTD(lengths)
            c_star, cost = optimal_fixed_cutoff(rtd)
            best = min(
                (expected_time_fixed(rtd, int(c)), int(c))
                for c in np.unique(np.maximum(lengths, 1))
            )
            if not math.isclose(cost, best[0], rel_tol=1e-12):
                mismatches += 1
        big = EmpiricalRTD(np.arange(1, 10 ** 4 + 1))
        c_big, cost_big = optimal_fixed_cutoff(big)
        brute_big = min(
            (expected_time_fixed(big, c), c) for c in range(1, 10 ** 4 + 1)
        )
        big_ok = math.isclose(cost_big, brute_big[0], rel_tol=1e-12)
        two_point = EmpiricalRTD([1] * 50 + [10 ** 6] * 50)
        c2, e2 = optimal_fixed_cutoff(two_point)
        exact = c2 == 1 and math.isclose(e2, 2.0, rel_tol=1e-15)
        ok = mismatches == 0 and big_ok and exact
        report(8, "optimal fixed cutoff", ok,
               f"{mismatches} scan/brute mismatches; 1e4-support match:"
               f" {big_ok}; two-point c*={c2}, E={e2}")


class TestCriterion9:
    def test_dynamic_beats_optimal_fixed_on_bimodal(self):
        lengths = [100] * 100 + [5000] * 4500 + [10 ** 6] * 5400
        rtd = EmpiricalRTD(lengths)
        c_star, fixed_cost = optimal_fixed_cutoff(rtd)
        policy = DynamicPolicy(observe=500, limit=5000.0,
                               predictor=SyntheticPredictor(0.9))
        stats = simulate_policy(RtdSource(rtd), policy, trials=10 ** 5,
                                master_seed=9)
        margin = stats.mc_mean_cost + 3 * stats.mc_se_cost
        ok = (not stats.unbounded
              and policy.observe > c_star
              and margin < 0.9 * fixed_cost)
        report(9, "dynamic beats fixed", ok,
               f"fixed c*={c_star} cost {fixed_cost:.0f}; dynamic O=500>"
               f"{c_star} cost {stats.mc_mean_cost:.0f}+-{stats.mc_se_cost:.0f}"
               f" (need < {0.9 * fixed_cost:.0f})")


class TestCriterion10:
    def test_luby_sequence_and_universality(self):
        want = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
        got = [luby_term(i) for i in range(1, 16)]
        two_point = EmpiricalRTD([1] * 50 + [10 ** 6] * 50)
        _, fixed_cost = optimal_fixed_cutoff(two_point)
        stats = simulate_policy(RtdSource(two_point), LubyPolicy(scale=1),
                                trials=10 ** 5, master_seed=10)
        finite = not stats.unbounded and math.isfinite(stats.mc_mean_cost)
        ok = got == want and finite and stats.mc_mean_cost <= 10 * fixed_cost
        report(10, "luby policy", ok,
               f"terms {'match' if got == want else got}; mean cost"
               f" {stats.mc_mean_cost:.2f} vs 10x optimal {10 * fixed_cost:.0f}")


class TestCriterion11:
    def test_thread_count_never_changes_bytes(self, tmp_path, monkeypatch):
        args = [
            "dataset", "--order", "10", "--holes", "70", "--balanced",
            "--runs", "30", "--test-runs", "10", "--horizon", "20",
            "--cutoff", "3000", "--seed", "11", "--out-prefix", "run",
        ]
        blobs = {}
        for tag, threads in (("t1", "1"), ("t8", "8")):
            d = tmp_path / tag
            d.mkdir()
            monkeypatch.chdir(d)
            assert main(args + ["--threads", threads]) == EXIT_OK
            blobs[tag] = tuple(
                (d / f"run_{k}").read_bytes()
                for k in ("train.csv", "test.csv", "rtd.txt")
            )
        ok = blobs["t1"] == blobs["t8"]
        report(11, "worker determinism", ok,
               "train/test/rtd bytes identical across 1 and 8 workers"
               if ok else "outputs differ between 1 and 8 workers")


# Hole count for the fallback peak search.  Balanced poking deliberately
# evens out run difficulty, so the searched family is unbalanced and sits in
# the underconstrained band where typical runs are short but a minority
# thrash deep; that contrast is what the max/median signature measures.
PEAK_SEARCH_HOLES = 210
PEAK_SEARCH_CUTOFF = 30000


class TestCriterion12:
    def test_heavy_tail_present_or_findable(self):
        square = generate_complete(DESK_ORDER, derive_seed(DESK_SEED, "instance"))
        inst = poke_holes(
            square,
            HoleSpec(mode=BALANCED, holes_per_line=DESK_HOLES // DESK_ORDER),
            derive_seed(DESK_SEED, "mask"),
        )
        config = SolverConfig(cutoff=DESK_CUTOFF, propagation=FORWARD_CHECK)
        lengths = [
            solve(inst, config, derive_seed(DESK_SEED, "run", i)).choice_points
            for i in range(500)
        ]
        med = float(np.median(lengths))
        desk_ratio = max(lengths) / med
        if desk_ratio >= 10.0:
            report(12, "heavy tail", True,
                   f"desk instance: 500-run max/median {desk_ratio:.1f}")
            return

        found, info = find_heavy_tail_instance(
            DESK_ORDER,
            HoleSpec(mode=UNBALANCED, total_holes=PEAK_SEARCH_HOLES),
            master_seed=DESK_SEED,
            probe_runs=60,
            ratio=10.0,
            max_candidates=20,
            cutoff=PEAK_SEARCH_CUTOFF,
        )
        if found is None:
            report(12, "heavy tail", False,
                   f"desk ratio {desk_ratio:.1f} < 10; peak search exhausted"
                   f" {len(info['trials'])} candidates")
            return

        # The probe qualifies on 60 runs; confirm the signature holds on a
        # full 500-run sample with seeds disjoint from the probe's.
        cand = info["chosen"]
        config = SolverConfig(cutoff=PEAK_SEARCH_CUTOFF,
                              propagation=FORWARD_CHECK)
        lengths = [
            solve(found, config,
                  derive_seed(DESK_SEED, "peak", cand, "validate", i),
                  ).choice_points
            for i in range(500)
        ]
        med = float(np.median(lengths))
        ratio = max(lengths) / med
        ok = med >= 1.0 and ratio >= 10.0
        report(12, "heavy tail", ok,
               f"desk ratio {desk_ratio:.1f} < 10; peak search hit candidate"
               f" {cand} (probe ratio {info['ratio']:.1f}), 500-run"
               f" max/median {ratio:.1f}")
