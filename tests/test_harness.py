"""Tests for experiment orchestration: spec validation, censoring bookkeeping,
split labeling, determinism across worker counts, and instance search."""

import sys

import numpy as np
import pytest

from restartlab import harness
from restartlab.features import (
    REGISTRY, SummaryVector, normalize_for_multi, registry_hash, summary_columns,
)
from restartlab.harness import (
    MULTI_INSTANCE,
    SINGLE_INSTANCE,
    ExperimentSpec,
    find_heavy_tail_instance,
    run_experiment,
)
from restartlab.io import DataFormatError
from restartlab.latin import (
    BALANCED,
    HOLE,
    HoleSpec,
    PartialLatinSquare,
    StructureError,
    generate_complete,
    poke_holes,
)
from restartlab.seeds import derive_seed
from restartlab.solver import FORWARD_CHECK, SOLVED, SolverConfig, solve

from reference import validate

FOUR_PER_LINE = HoleSpec(mode=BALANCED, holes_per_line=4)
SEVEN_PER_LINE = HoleSpec(mode=BALANCED, holes_per_line=7)


def small_spec(**kw):
    base = dict(
        mode=SINGLE_INSTANCE,
        order=10,
        holes=SEVEN_PER_LINE,
        train_runs=60,
        test_runs=20,
        horizon=50,
        cutoff=4000,
        propagation=FORWARD_CHECK,
        master_seed=3,
    )
    base.update(kw)
    return ExperimentSpec(**base)


class TestExperimentSpec:
    def test_defaults_accepted(self):
        spec = ExperimentSpec(holes=FOUR_PER_LINE)
        assert spec.mode == SINGLE_INSTANCE
        assert spec.order == 18

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(mode="STREAMING", holes=FOUR_PER_LINE)

    def test_multi_instance_with_fixed_instance_rejected(self):
        square = generate_complete(10, seed=0)
        inst = poke_holes(square, FOUR_PER_LINE, seed=1)
        with pytest.raises(ValueError):
            ExperimentSpec(mode=MULTI_INSTANCE, holes=FOUR_PER_LINE, instance=inst)

    def test_need_instance_or_holes(self):
        with pytest.raises(ValueError):
            ExperimentSpec()

    def test_run_counts_validated(self):
        with pytest.raises(ValueError):
            ExperimentSpec(holes=FOUR_PER_LINE, train_runs=0)
        with pytest.raises(ValueError):
            ExperimentSpec(holes=FOUR_PER_LINE, test_runs=-1)

    def test_horizon_minimum(self):
        with pytest.raises(ValueError):
            ExperimentSpec(holes=FOUR_PER_LINE, horizon=1)

    def test_cutoff_below_horizon_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(holes=FOUR_PER_LINE, horizon=200, cutoff=199)
        # equal is the boundary case and is allowed
        ExperimentSpec(holes=FOUR_PER_LINE, horizon=200, cutoff=200)


@pytest.fixture(scope="module")
def small_result():
    return run_experiment(small_spec())


class TestRunExperiment:
    def test_counts_conserved_per_split(self, small_result):
        _, _, _, info = small_result
        for split, total in (("train", 60), ("test", 20)):
            c = info[split]
            assert c["total"] == total
            assert c["under_horizon"] + c["rows"] + c["cutoff_hit"] == total

    def test_no_row_survives_below_horizon(self, small_result):
        train, test, _, info = small_result
        assert int(train.runtime.min()) >= 50
        assert int(test.runtime.min()) >= 50
        # this config produces all three outcomes
        assert info["train"]["under_horizon"] > 0
        assert info["train"]["cutoff_hit"] > 0

    def test_row_counts_match_info(self, small_result):
        train, test, _, info = small_result
        assert int((~train.censored).sum()) == info["train"]["rows"]
        assert int(train.censored.sum()) == info["train"]["cutoff_hit"]
        assert int((~test.censored).sum()) == info["test"]["rows"]

    def test_training_labels_split_at_median(self, small_result):
        train, _, _, info = small_result
        scaled = train.scaled_runtime
        expect = np.median(scaled[~train.censored])
        assert train.median == pytest.approx(expect)
        assert info["median"] == pytest.approx(expect)
        np.testing.assert_array_equal(
            train.is_short, (scaled < train.median) & ~train.censored
        )

    def test_censored_rows_labeled_long(self, small_result):
        train, test, _, _ = small_result
        for ds in (train, test):
            assert not ds.is_short[ds.censored].any()
            if ds.censored.any():
                assert set(ds.runtime[ds.censored]) == {4000}

    def test_test_split_reuses_training_median(self, small_result):
        train, test, _, _ = small_result
        assert test.median == train.median
        np.testing.assert_array_equal(
            test.is_short, (test.scaled_runtime < train.median) & ~test.censored
        )

    def test_rtd_holds_every_solved_run(self, small_result):
        _, _, rtd, info = small_result
        unsolved = info["train"]["cutoff_hit"] + info["test"]["cutoff_hit"]
        assert rtd.size == 80 - unsolved
        assert rtd.lengths.max() <= 4000

    def test_columns_match_registry(self, small_result):
        train, _, _, info = small_result
        assert train.columns == summary_columns(REGISTRY)
        assert train.X.shape == (len(train.runtime), 126)
        assert info["registry_hash"] == registry_hash(REGISTRY)

    def test_single_instance_divisor_is_one(self, small_result):
        train, _, _, _ = small_result
        assert (train.divisor == 1.0).all()
        np.testing.assert_array_equal(train.scaled_runtime, train.runtime)

    def test_fixed_instance_accepted(self):
        square = generate_complete(10, seed=5)
        inst = poke_holes(square, SEVEN_PER_LINE, seed=6)
        spec = ExperimentSpec(
            order=10, instance=inst, train_runs=10, test_runs=0,
            horizon=2, cutoff=2000, master_seed=1,
        )
        train, test, rtd, info = run_experiment(spec)
        assert test is None
        assert info["train"]["total"] == 10
        assert rtd.size >= 1

    def test_unsatisfiable_instance_raises(self):
        dead = PartialLatinSquare.from_rows(
            [[1, 2, 3], [2, 3, HOLE], [HOLE, HOLE, 1]]
        )
        spec = ExperimentSpec(
            order=3, instance=dead, train_runs=4, test_runs=0,
            horizon=2, master_seed=0,
        )
        with pytest.raises(DataFormatError):
            run_experiment(spec)

    def test_all_runs_under_horizon_raises(self):
        # an easy instance solved well inside a huge horizon leaves no rows
        spec = ExperimentSpec(
            order=6,
            holes=HoleSpec(mode=BALANCED, holes_per_line=3),
            train_runs=5,
            test_runs=0,
            horizon=100000,
            master_seed=2,
        )
        with pytest.raises(DataFormatError):
            run_experiment(spec)

    def test_no_run_solved_raises(self):
        # the desk instance at cutoff 2: every run is censored, so the
        # training split has no row to label
        spec = ExperimentSpec(order=18, holes=SEVEN_PER_LINE, train_runs=20, test_runs=5,
                              horizon=2, cutoff=2, master_seed=81)
        assert not any(r.outcome == SOLVED for r in harness._execute_runs(spec, 25, 1))
        with pytest.raises(DataFormatError, match="^zero surviving rows after censoring;"):
            run_experiment(spec)


@pytest.fixture(scope="module")
def multi():
    spec = small_spec(
        mode=MULTI_INSTANCE,
        holes=HoleSpec(mode=BALANCED, holes_per_line=5),
        train_runs=40,
        test_runs=0,
        horizon=2,
    )
    return run_experiment(spec)


class TestMultiInstanceMode:
    def test_divisor_tracks_instance_size(self, multi):
        train, _, _, _ = multi
        assert (train.divisor >= 1.0).all()
        assert len(set(train.divisor.tolist())) > 1

    def test_runtime_scaled_for_labels(self, multi):
        train, _, _, _ = multi
        np.testing.assert_allclose(
            train.scaled_runtime, train.runtime / train.divisor
        )
        scaled = train.scaled_runtime[~train.censored]
        assert train.median == pytest.approx(np.median(scaled))

    def test_counts_conserved(self, multi):
        _, _, _, info = multi
        c = info["train"]
        assert c["under_horizon"] + c["rows"] + c["cutoff_hit"] == 40

    def test_rows_are_each_summary_normalized_alone(self):
        # the summary matrix's masked division gives every row, bit for bit,
        # what normalize_for_multi gives that run's summary on its own
        spec = small_spec(mode=MULTI_INSTANCE, holes=HoleSpec(mode=BALANCED, holes_per_line=5),
                          train_runs=40, test_runs=0, horizon=2)
        records = harness._execute_runs(spec, 40, 1)
        ds, _ = harness._build_split(records, summary_columns(), None, True)
        kept = [r for r in records if r.summary is not None]
        want = [normalize_for_multi(SummaryVector(np.frombuffer(r.summary)),
                                    r.post_propagation_size) for r in kept]
        assert ds.X.tobytes() == np.array([sv.values for sv in want]).tobytes()
        assert ds.divisor.tolist() == [sv.divisor for sv in want]
        assert len(set(ds.divisor.tolist())) > 1


class TestDeterminismAcrossThreads:
    def write_all(self, tmp_path, tag, threads):
        spec = small_spec(train_runs=30, test_runs=10, master_seed=7, horizon=20)
        paths = {
            kind: str(tmp_path / f"{tag}_{kind}")
            for kind in ("train", "test", "rtd")
        }
        run_experiment(
            spec,
            threads=threads,
            train_path=paths["train"],
            test_path=paths["test"],
            rtd_path=paths["rtd"],
            params={"order": 10, "holes": 40},
        )
        return {k: open(p, "rb").read() for k, p in paths.items()}

    def test_repeat_identical(self, tmp_path):
        a = self.write_all(tmp_path, "a", threads=1)
        b = self.write_all(tmp_path, "b", threads=1)
        assert a == b

    def test_worker_count_invisible(self, tmp_path):
        a = self.write_all(tmp_path, "one", threads=1)
        b = self.write_all(tmp_path, "two", threads=2)
        assert a == b

    @pytest.mark.parametrize("mode", [SINGLE_INSTANCE, MULTI_INSTANCE])
    def test_more_threads_than_cores_switching_often(self, mode):
        # the workers take indices from one shared iterator: with eight
        # threads and a thread switch every microsecond, each index still
        # runs once, on its own seed and, in multi mode, its own instance
        spec = small_spec(mode=mode, train_runs=80, test_runs=0, horizon=20, master_seed=7)

        serial = harness._execute_runs(spec, 80, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = harness._execute_runs(spec, 80, 8)
        finally:
            sys.setswitchinterval(interval)
        assert [r.seed for r in serial] == [derive_seed(7, "run", i) for i in range(80)]
        assert threaded == serial

    def test_no_more_threads_than_runs(self, monkeypatch):
        # 64 threads asked for 3 runs: the pool is asked for 3 workers.  The
        # fake pool records that and runs each worker in this thread, so no
        # thread starts.
        spec = small_spec(train_runs=3, test_runs=0, horizon=20, master_seed=7)
        asked = {"max_workers": None, "submits": 0}

        class Done:
            def __init__(self, value):
                self.value = value

            def result(self):
                return self.value

        class InlinePool:
            def __init__(self, max_workers):
                asked["max_workers"] = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn):
                asked["submits"] += 1
                return Done(fn())

        serial = harness._execute_runs(spec, 3, 1)
        monkeypatch.setattr(harness, "ThreadPoolExecutor", InlinePool)
        assert harness._execute_runs(spec, 3, 64) == serial
        assert asked == {"max_workers": 3, "submits": 3}


class TestEachCheckOnce:
    def test_runs_neither_validate_nor_build_the_solved_square(self, monkeypatch):
        # the kernel checks the instance and solve alone builds the square
        squares = []
        from_flat = PartialLatinSquare.from_flat

        def counted(*args):
            squares.append(args)
            return from_flat(*args)

        instance = poke_holes(generate_complete(10, seed=0), SEVEN_PER_LINE, seed=1)
        monkeypatch.setattr(PartialLatinSquare, "from_flat", staticmethod(counted))
        _, _, _, info = run_experiment(small_spec(holes=None, instance=instance,
                                                  train_runs=20, test_runs=5))
        assert (info["train"]["total"], info["test"]["total"]) == (20, 5)
        assert len(squares) == 0
        rec = solve(instance, SolverConfig(), seed=3)
        assert len(squares) == 1
        assert rec.assignment.is_complete() and validate(rec.assignment) == []


class TestFindHeavyTailInstance:
    def test_latin_violating_candidate_is_refused(self, monkeypatch):
        def clashing(square, holes, seed):
            rows = [list(row) for row in square.cells]
            rows[0][1] = rows[0][0]
            return PartialLatinSquare.from_rows(rows)

        monkeypatch.setattr(harness, "poke_holes", clashing)
        with pytest.raises(StructureError, match="violates the Latin property"):
            find_heavy_tail_instance(8, FOUR_PER_LINE, master_seed=1, probe_runs=3)

    def test_easy_ratio_accepts_first_qualifier(self):
        holes = HoleSpec(mode=BALANCED, holes_per_line=5)
        inst, info = find_heavy_tail_instance(
            8, holes, master_seed=1, probe_runs=6, ratio=1.5,
            max_candidates=3, cutoff=2000,
        )
        assert inst is not None
        assert inst.hole_count() == 40
        assert info["chosen"] is not None
        assert info["ratio"] >= 1.5

    def test_impossible_ratio_reports_all_trials(self):
        holes = HoleSpec(mode=BALANCED, holes_per_line=3)
        inst, info = find_heavy_tail_instance(
            8, holes, master_seed=1, probe_runs=5, ratio=1e9,
            max_candidates=3, cutoff=500,
        )
        assert inst is None
        assert info["chosen"] is None
        assert len(info["trials"]) == 3
        for t in info["trials"]:
            assert t["max"] / max(t["median"], 1.0) < 1e9
            assert set(t) == {"candidate", "median", "max", "ratio"}

    def test_deterministic(self):
        holes = HoleSpec(mode=BALANCED, holes_per_line=5)
        a = find_heavy_tail_instance(
            8, holes, master_seed=4, probe_runs=5, ratio=1.5,
            max_candidates=2, cutoff=500,
        )
        b = find_heavy_tail_instance(
            8, holes, master_seed=4, probe_runs=5, ratio=1.5,
            max_candidates=2, cutoff=500,
        )
        assert a[1] == b[1]
        assert (a[0] is None) == (b[0] is None)
        if a[0] is not None:
            assert a[0].cells == b[0].cells
