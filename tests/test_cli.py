"""End-to-end tests of the command-line interface: verbs, exit codes, file
round trips, and byte-level determinism of produced artifacts."""

import hashlib
import inspect
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import restartlab
from restartlab import cli, fc_kernel, harness
from restartlab.cli import (
    EXIT_DATA,
    EXIT_KERNEL,
    EXIT_OK,
    EXIT_UNBOUNDED,
    EXIT_USAGE,
    build_parser,
    main,
)
from restartlab.harness import ExperimentSpec, find_heavy_tail_instance
from restartlab.io import (
    read_dataset,
    read_instance,
    read_model,
    write_dataset,
    write_instance,
    write_rtd,
)
from restartlab.latin import HOLE, HoleSpec, PartialLatinSquare, generate_complete, poke_holes
from restartlab.learn import Dataset, label_by_median
from restartlab.seeds import derive_seed
from restartlab.solver import FORWARD_CHECK, SolverConfig, solve

DATASET_ARGS = [
    "dataset",
    "--order", "10",
    "--holes", "70",
    "--balanced",
    "--runs", "40",
    "--test-runs", "12",
    "--horizon", "20",
    "--cutoff", "3000",
    "--seed", "3",
]


# Symbol 1 twice in the first row: not a partial Latin square.
LATIN_VIOLATION = "3\n1 . 1\n. . .\n. . .\n"


def latin_violation(tmp_path):
    """An instance file whose first row repeats a symbol, and the one error
    line solve and dataset give for it."""
    path = tmp_path / "bad.txt"
    path.write_text(LATIN_VIOLATION)
    return path, f"error: {path}: instance violates the Latin property\n"


def not_utf8(source, path):
    """A copy of source at path behind the bytes ff fe, which are not UTF-8."""
    path.write_bytes(b"\xff\xfe" + source.read_bytes())
    return str(path)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One shared tree: an instance file, a small dataset, a trained model."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["generate", "--order", "10", "--holes", "70", "--balanced",
                 "--seed", "2", "-o", str(root / "inst.txt")]) == EXIT_OK
    assert main(DATASET_ARGS + ["--out-prefix", str(root / "small")]) == EXIT_OK
    assert main(["train", str(root / "small_train.csv"),
                 "-o", str(root / "model.json")]) == EXIT_OK
    return root


class TestGenerate:
    def test_writes_readable_instance(self, workdir):
        inst = read_instance(str(workdir / "inst.txt"))
        assert inst.order == 10
        assert inst.hole_count() == 70

    def test_zero_holes_gives_complete_square(self, tmp_path):
        out = tmp_path / "full.txt"
        assert main(["generate", "--order", "6", "-o", str(out)]) == EXIT_OK
        assert read_instance(str(out)).is_complete()

    def test_balanced_requires_divisibility(self, tmp_path):
        code = main(["generate", "--order", "10", "--holes", "73", "--balanced",
                     "-o", str(tmp_path / "x.txt")])
        assert code == EXIT_USAGE

    _GENERATE = ["generate", "--order", "5", "-o", "x.txt"]
    _DATASET = ["dataset", "--order", "5", "--runs", "2", "--out-prefix", "x"]
    _RANGE = "--holes must lie between 0 and 25 at order 5"

    @pytest.mark.parametrize("argv, message", [
        (_GENERATE + ["--holes", "-3"], _RANGE),
        (_GENERATE + ["--holes", "30"], _RANGE),
        (_GENERATE + ["--holes", "30", "--balanced"], _RANGE),
        (_DATASET + ["--holes", "-3"], _RANGE),
        (_DATASET + ["--holes", "30"], _RANGE),
        (_DATASET + ["--holes", "30", "--balanced"], _RANGE),
        (_DATASET, "the default of 7 holes per line needs --order >= 7, got 5; pass --holes"),
    ], ids=[f"{verb}-{case}" for verb in ("generate", "dataset")
            for case in ("negative", "past_the_cells", "past_the_cells_balanced")]
       + ["dataset-desk_default"])
    def test_holes_the_order_cannot_hold_are_usage_errors(
        self, tmp_path, monkeypatch, capsys, argv, message
    ):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_deterministic_output(self, tmp_path, monkeypatch):
        # headers echo the invocation, so identical flags need identical paths
        args = ["generate", "--order", "8", "--holes", "24", "--seed", "9",
                "-o", "x.txt"]
        blobs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            monkeypatch.chdir(d)
            assert main(args) == EXIT_OK
            blobs.append((d / "x.txt").read_bytes())
        assert blobs[0] == blobs[1]

    def test_order_above_64_is_refused(self, tmp_path, capsys):
        out = tmp_path / "big.txt"
        assert main(["generate", "--order", "65", "-o", str(out)]) == EXIT_USAGE
        assert "maximum order 64" in capsys.readouterr().err
        assert not out.exists()


class TestSolve:
    def test_reports_outcome(self, workdir, capsys):
        assert main(["solve", str(workdir / "inst.txt"), "--seed", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith(("SOLVED", "CUTOFF"))
        assert "choice_points=" in out

    def test_same_seed_same_outcome(self, workdir, capsys):
        main(["solve", str(workdir / "inst.txt"), "--seed", "5"])
        first = capsys.readouterr().out
        main(["solve", str(workdir / "inst.txt"), "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_report_file(self, workdir, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert main(["solve", str(workdir / "inst.txt"), "--seed", "1",
                     "-o", str(out)]) == EXIT_OK
        capsys.readouterr()
        obj = json.loads(out.read_text())
        assert obj["report"]["outcome"] in ("SOLVED", "CUTOFF")
        assert set(obj["params"]) == {"command", "instance", "seed", "propagation", "output"}

    def test_horizon_is_not_an_option(self, workdir, capsys):
        # an untraced run reads no horizon
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(workdir / "inst.txt"), "--horizon", "5"])
        assert exc.value.code == EXIT_USAGE
        assert "--horizon" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.txt")]) == EXIT_DATA
        assert "error" in capsys.readouterr().err

    def test_malformed_order_line_is_a_data_error_naming_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1\n2 2\n")
        assert main(["solve", str(bad), "-o", str(tmp_path / "run.json")]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {bad}: first line must be the order\n"
        assert list(tmp_path.iterdir()) == [bad]

    def test_conflicting_instance_rejected(self, tmp_path, capsys):
        # a column repeat: the kernel's column mask refuses it, where
        # latin_violation repeats a symbol in a row
        bad = tmp_path / "bad.txt"
        bad.write_text("3\n1 . .\n. . .\n1 . .\n")
        assert main(["solve", str(bad), "-o", str(tmp_path / "run.json")]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {bad}: instance violates the Latin property\n"
        assert list(tmp_path.iterdir()) == [bad]

    def test_latin_violation_is_a_data_error_naming_the_file(self, tmp_path, capsys):
        path, message = latin_violation(tmp_path)
        assert main(["solve", str(path), "-o", str(tmp_path / "run.json")]) == EXIT_DATA
        assert capsys.readouterr().err == message
        assert list(tmp_path.iterdir()) == [path]

    def test_order_above_64_is_refused(self, tmp_path, capsys):
        n = 65
        rows = [[(r + c) % n + 1 for c in range(n)] for r in range(n)]
        rows[0][0] = HOLE
        path = tmp_path / "big.txt"
        write_instance(str(path), PartialLatinSquare.from_rows(rows))
        assert main(["solve", str(path), "-o", str(tmp_path / "run.json")]) == EXIT_USAGE
        assert "maximum order 64" in capsys.readouterr().err
        assert not (tmp_path / "run.json").exists()


class TestDataset:
    def test_bookkeeping_matches_files(self, workdir, capsys):
        train = read_dataset(str(workdir / "small_train.csv"))
        test = read_dataset(str(workdir / "small_test.csv"))
        for ds, total in ((train, 40), (test, 12)):
            meta = ds.provenance["meta"]
            assert meta["total"] == total
            assert meta["under_horizon"] + meta["rows"] + meta["cutoff_hit"] == total
            assert meta["rows"] == int((~ds.censored).sum())
            assert meta["cutoff_hit"] == int(ds.censored.sum())
            assert meta["horizon"] == 20
        assert test.median == train.median
        assert int(train.runtime.min()) >= 20

    def test_labels_follow_median(self, workdir):
        train = read_dataset(str(workdir / "small_train.csv"))
        keep = ~train.censored
        np.testing.assert_array_equal(
            train.is_short[keep], train.runtime[keep] < train.median
        )
        assert not train.is_short[train.censored].any()

    def test_rtd_counts_all_solved_runs(self, workdir):
        from restartlab.io import read_rtd

        rtd = read_rtd(str(workdir / "small_rtd.txt"))
        train = read_dataset(str(workdir / "small_train.csv"))
        test = read_dataset(str(workdir / "small_test.csv"))
        censored = int(train.censored.sum() + test.censored.sum())
        assert rtd.size == 52 - censored

    def test_byte_identical_across_reruns_and_threads(self, tmp_path, monkeypatch):
        args = [
            "dataset", "--order", "10", "--holes", "70", "--balanced",
            "--runs", "14", "--test-runs", "6", "--horizon", "20",
            "--cutoff", "3000", "--seed", "11", "--out-prefix", "run",
        ]
        blobs = {}
        for tag, extra in (
            ("a", []), ("b", []), ("c", ["--threads", "2"])
        ):
            d = tmp_path / tag
            d.mkdir()
            monkeypatch.chdir(d)
            assert main(args + extra) == EXIT_OK
            blobs[tag] = tuple(
                (d / f"run_{kind}").read_bytes()
                for kind in ("train.csv", "test.csv", "rtd.txt")
            )
        assert blobs["a"] == blobs["b"]
        assert blobs["a"] == blobs["c"]

    def test_indivisible_balanced_holes_rejected(self, tmp_path):
        code = main(["dataset", "--order", "10", "--holes", "73", "--balanced",
                     "--runs", "4", "--out-prefix", str(tmp_path / "x")])
        assert code == EXIT_USAGE

    def test_multi_instance_mode_runs(self, tmp_path, capsys):
        code = main([
            "dataset", "--mode", "multi", "--order", "10", "--holes", "50",
            "--balanced", "--runs", "12", "--test-runs", "0", "--horizon", "2",
            "--cutoff", "2000", "--seed", "4",
            "--out-prefix", str(tmp_path / "m"),
        ])
        assert code == EXIT_OK
        ds = read_dataset(str(tmp_path / "m_train.csv"))
        assert ds.provenance["meta"]["mode"] == "MULTI_INSTANCE"
        np.testing.assert_allclose(ds.scaled_runtime, ds.runtime / ds.divisor)

    def test_fixed_instance_file(self, workdir, tmp_path, capsys):
        code = main([
            "dataset", "--instance", str(workdir / "inst.txt"), "--order", "10",
            "--runs", "10", "--test-runs", "0", "--horizon", "2",
            "--cutoff", "2000", "--seed", "6",
            "--out-prefix", str(tmp_path / "fx"),
        ])
        assert code == EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize("flags", [["--holes", "50"], ["--holes", "400"], ["--balanced"]],
                             ids=["holes", "holes-beyond-the-order", "balanced"])
    def test_fixed_instance_refuses_hole_flags(self, workdir, tmp_path, capsys, flags):
        # the file sets the holes; 400 is more cells than the default order 18 has
        code = main(["dataset", "--instance", str(workdir / "inst.txt"), *flags,
                     "--runs", "4", "--test-runs", "0", "--horizon", "2",
                     "--out-prefix", str(tmp_path / "x")])
        assert code == EXIT_USAGE
        assert capsys.readouterr() == (
            "", "error: --holes and --balanced shape generated instances,"
                " not a fixed instance file\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_latin_violating_instance_writes_nothing(self, tmp_path, capsys, threads):
        path, message = latin_violation(tmp_path)
        code = main(["dataset", "--instance", str(path), "--runs", "4", "--test-runs", "2",
                     "--horizon", "2", "--threads", threads,
                     "--out-prefix", str(tmp_path / "x")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == message
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_instance_without_completion_writes_nothing(self, tmp_path, capsys, threads):
        # root propagation empties cell (1, 2): its row needs 1, its column holds it
        path = tmp_path / "dead.txt"
        write_instance(str(path), PartialLatinSquare.from_rows(
            [[1, 2, 3], [2, 3, HOLE], [HOLE, HOLE, 1]]))
        code = main(["dataset", "--instance", str(path), "--runs", "4", "--test-runs", "2",
                     "--horizon", "2", "--threads", threads,
                     "--out-prefix", str(tmp_path / "x")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            "error: instance admits no completion; cannot measure run lengths\n")
        assert list(tmp_path.iterdir()) == [path]

    def test_desk_default_then_a_fixed_instance(self, workdir, tmp_path, monkeypatch, capsys):
        # with no --holes the desk default sets args.holes and args.balanced;
        # a fixed-instance run after it in one process writes what a fresh
        # process writes
        fixed = ["dataset", "--instance", "inst.txt", "--order", "10", "--runs", "4",
                 "--test-runs", "0", "--horizon", "2", "--cutoff", "2000", "--seed", "6",
                 "--out-prefix", "fx"]
        for name in ("fresh", "reused"):
            (tmp_path / name).mkdir()
            shutil.copy(workdir / "inst.txt", tmp_path / name / "inst.txt")
        monkeypatch.chdir(tmp_path / "reused")
        assert main(["dataset", "--runs", "2", "--test-runs", "0", "--out-prefix", "d"]) == EXIT_OK
        params = read_dataset("d_train.csv").provenance["params"]
        assert (params["order"], params["holes"], params["balanced"]) == (18, 126, True)
        assert main(fixed) == EXIT_OK
        capsys.readouterr()
        src = Path(restartlab.__file__).resolve().parent.parent
        proc = subprocess.run([sys.executable, "-m", "restartlab.cli", *fixed],
                              cwd=tmp_path / "fresh", env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        for kind in ("train.csv", "rtd.txt"):
            fresh = (tmp_path / "fresh" / f"fx_{kind}").read_bytes()
            assert (tmp_path / "reused" / f"fx_{kind}").read_bytes() == fresh
        params = read_dataset("fx_train.csv").provenance["params"]
        assert "holes" not in params and params["balanced"] is False

    def test_ctrl_c_stops_the_workers_and_writes_nothing(self, tmp_path):
        # 20000 desk runs last several seconds at two threads; SIGINT after
        # one second must end the process within five, before any write
        fc_kernel.load()  # the child loads the kernel built here
        src = Path(restartlab.__file__).resolve().parent.parent
        proc = subprocess.Popen(
            [sys.executable, "-m", "restartlab.cli", "dataset", "--runs", "20000",
             "--test-runs", "0", "--horizon", "50", "--cutoff", "100000", "--seed", "81",
             "--threads", "2", "--out-prefix", "desk"],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        time.sleep(1)
        assert proc.poll() is None, proc.stderr.read()
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            pytest.fail("dataset was still running 5 s after SIGINT")
        assert proc.returncode != 0
        err = proc.stderr.read()
        assert "KeyboardInterrupt" in err and "_execute_runs" in err  # in the run loop
        assert list(tmp_path.iterdir()) == []

    PEAK_SEARCH = ["dataset", "--peak-search", "--order", "8", "--holes", "40", "--balanced",
                   "--probe-runs", "5", "--cutoff", "500", "--horizon", "2"]

    def test_peak_search_builds_a_dataset(self, tmp_path, capsys):
        code = main(self.PEAK_SEARCH + ["--tail-ratio", "1.5",
                                        "--out-prefix", str(tmp_path / "p")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("peak search: candidate 0 median 8, max/median 4.1\n")
        train = read_dataset(str(tmp_path / "p_train.csv"))
        assert train.provenance["meta"]["total"] == 1000
        assert train.provenance["params"]["peak_search"] is True

    def test_peak_search_refuses_a_latin_violating_candidate(self, tmp_path, monkeypatch,
                                                             capsys):
        def clashing(square, holes, seed):
            rows = [list(row) for row in square.cells]
            rows[0][1] = rows[0][0]
            return PartialLatinSquare.from_rows(rows)

        monkeypatch.setattr(harness, "poke_holes", clashing)
        code = main(self.PEAK_SEARCH + ["--out-prefix", str(tmp_path / "p")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == "error: instance violates the Latin property\n"
        assert list(tmp_path.iterdir()) == []

    def test_peak_search_without_a_candidate_writes_nothing(self, tmp_path, capsys):
        for flags, message in [
            (["--tail-ratio", "1e9"], "no heavy-tailed instance within 20 candidates"),
            # candidate 0 qualifies, but its median 8 is below the horizon 10
            (["--tail-ratio", "1.5", "--horizon", "10"],
             "candidate 0 with probe median 8, below the horizon 10"),
        ]:
            code = main(self.PEAK_SEARCH + flags + ["--out-prefix", str(tmp_path / "p")])
            assert code == EXIT_DATA
            assert message in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, message", [
        (["--mode", "multi", "--runs", "4", "--test-runs", "2"],
         "--peak-search picks one instance; --mode multi draws one per run"),
        (["--instance", "inst.txt"],
         "--peak-search needs --order/--holes, not a fixed instance file"),
    ], ids=["multi", "instance"])
    def test_peak_search_refusals_search_nothing(self, workdir, tmp_path, monkeypatch, capsys,
                                                 flags, message):
        monkeypatch.setattr(cli, "find_heavy_tail_instance",
                            lambda *args, **kw: pytest.fail("the peak search ran"))
        monkeypatch.chdir(workdir)
        code = main(self.PEAK_SEARCH + flags + ["--tail-ratio", "1.5",
                                                "--out-prefix", str(tmp_path / "p")])
        assert code == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []


class TestTrain:
    def test_model_round_trip(self, workdir, capsys):
        model = read_model(str(workdir / "model.json"))
        train = read_dataset(str(workdir / "small_train.csv"))
        assert model.columns == train.columns
        assert model.training_median == train.median
        assert model.leaf_count >= 1

    def test_stdout_mentions_leaves(self, workdir, capsys):
        assert main(["train", str(workdir / "small_train.csv"),
                     "-o", str(workdir / "model2.json")]) == EXIT_OK
        assert "leaves" in capsys.readouterr().out

    def test_deterministic_model_file(self, workdir, tmp_path, monkeypatch, capsys):
        blobs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            monkeypatch.chdir(d)
            main(["train", str(workdir / "small_train.csv"), "-o", "m.json"])
            blobs.append((d / "m.json").read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1]

    def test_nonpositive_kappa_in_grid_rejected(self, workdir, tmp_path, capsys):
        # NaN and infinity are refused too: neither is a positive finite kappa
        for grid in ("0.1,0", "nan", "inf", "1e-3,nan"):
            assert main(["train", str(workdir / "small_train.csv"), "--kappa-grid", grid,
                         "-o", str(tmp_path / "m.json")]) == EXIT_USAGE
            assert "kappa must be positive" in capsys.readouterr().err
            assert not (tmp_path / "m.json").exists()

    def test_negative_seed_is_a_usage_error(self, workdir, tmp_path, capsys):
        # refused with numpy's SeedSequence message, before any file is written
        assert main(["train", str(workdir / "small_train.csv"), "--seed", "-1",
                     "-o", str(tmp_path / "m.json")]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: expected non-negative integer\n"
        assert not (tmp_path / "m.json").exists()

    def test_foreign_schema_rejected(self, tmp_path, capsys):
        ds = Dataset(
            columns=["a", "b"],
            X=np.zeros((4, 2)),
            runtime=np.array([5, 6, 7, 8]),
            is_short=np.array([True, True, False, False]),
            censored=np.zeros(4, bool),
            divisor=np.ones(4),
            median=6.5,
        )
        path = tmp_path / "odd.csv"
        write_dataset(str(path), ds)
        assert main(["train", str(path), "-o", str(tmp_path / "m.json")]) == EXIT_DATA
        capsys.readouterr()

    def test_split_line_variance_schema_rejected(self, workdir, tmp_path, capsys):
        # the removed layout: row and column variance in place of line_var
        # (feature-major, so line_var's nine columns become eighteen)
        ds = read_dataset(str(workdir / "small_train.csv"))
        j = ds.columns.index("line_var__init")
        block = ds.columns[j:j + 9]
        columns = (ds.columns[:j]
                   + [c.replace("line_var", f) for f in ("row_var", "col_var") for c in block]
                   + ds.columns[j + 9:])
        split = Dataset(columns=columns, X=np.hstack([ds.X[:, :j + 9], ds.X[:, j:]]),
                        runtime=ds.runtime, is_short=ds.is_short, censored=ds.censored,
                        divisor=ds.divisor, median=ds.median)
        path = tmp_path / "split.csv"
        write_dataset(str(path), split)
        assert main(["train", str(path), "-o", str(tmp_path / "m.json")]) == EXIT_DATA
        assert "column schema" in capsys.readouterr().err


class TestEval:
    def test_prints_both_scores(self, workdir, capsys):
        assert main(["eval", str(workdir / "model.json"),
                     str(workdir / "small_test.csv")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "model: accuracy" in out
        assert "marginal: accuracy" in out

    def test_report_payload(self, workdir, tmp_path, capsys):
        out = tmp_path / "eval.json"
        assert main(["eval", str(workdir / "model.json"),
                     str(workdir / "small_test.csv"), "-o", str(out)]) == EXIT_OK
        capsys.readouterr()
        rep = json.loads(out.read_text())["report"]
        assert set(rep) == {"test_rows", "model", "marginal"}
        assert 0.0 <= rep["model"]["accuracy"] <= 1.0
        assert rep["marginal"]["avg_log_score"] <= 0.0

    def test_column_mismatch_rejected(self, workdir, tmp_path, capsys):
        ds = Dataset(
            columns=["a"],
            X=np.zeros((2, 1)),
            runtime=np.array([5, 9]),
            is_short=np.array([True, False]),
            censored=np.zeros(2, bool),
            divisor=np.ones(2),
            median=7.0,
        )
        path = tmp_path / "narrow.csv"
        write_dataset(str(path), ds)
        assert main(["eval", str(workdir / "model.json"), str(path)]) == EXIT_DATA
        capsys.readouterr()

    def test_model_without_columns_is_data_error(self, workdir, tmp_path, capsys):
        obj = json.loads((workdir / "model.json").read_text())
        del obj["columns"]
        path = tmp_path / "no_columns.json"
        path.write_text(json.dumps(obj))
        assert main(["eval", str(path), str(workdir / "small_test.csv")]) == EXIT_DATA
        assert str(path) in capsys.readouterr().err

    def test_runtime_past_int64_is_data_error(self, workdir, tmp_path, capsys):
        lines = (workdir / "small_test.csv").read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
        fields = lines[row].split(",")
        fields[-4] = "100000000000000000000"
        lines[row] = ",".join(fields)
        path = tmp_path / "huge_runtime.csv"
        path.write_text("\n".join(lines) + "\n")
        assert main(["eval", str(workdir / "model.json"), str(path)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_utf8_files_are_data_errors(self, workdir, tmp_path, capsys):
        model = not_utf8(workdir / "model.json", tmp_path / "model.json")
        test = not_utf8(workdir / "small_test.csv", tmp_path / "test.csv")
        for argv, bad in (([model, str(workdir / "small_test.csv")], model),
                          ([str(workdir / "model.json"), test], test)):
            assert main(["eval", *argv]) == EXIT_DATA
            assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8")


def test_split_without_uncensored_rows_is_data_error(workdir, tmp_path, capsys):
    # a header-only copy of the test split, and a copy whose every row is censored
    lines = (workdir / "small_test.csv").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    censored = [",".join(row[:-2] + ["1", row[-1]]) for row in
                (line.split(",") for line in lines[start:])]
    for name, rows in (("header_only.csv", []), ("all_censored.csv", censored)):
        path = tmp_path / name
        path.write_text("\n".join(lines[:start] + rows) + "\n")
        for argv in (["train", str(path), "-o", str(tmp_path / "m.json")],
                     ["eval", str(workdir / "model.json"), str(path)],
                     ["policy", str(workdir / "small_rtd.txt"), "--policy", "dynamic:20,3000",
                      "--model", str(workdir / "model.json"), "--dataset", str(path)]):
            assert main(argv) == EXIT_DATA, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {path}: "), argv


class TestCascade:
    def test_runs_and_reports(self, workdir, tmp_path, capsys):
        out = tmp_path / "cascade.json"
        code = main([
            "cascade", str(workdir / "small_train.csv"),
            str(workdir / "small_test.csv"),
            "--thresholds", "20,60", "--min-rows", "5", "-o", str(out),
        ])
        assert code == EXIT_OK
        stages = json.loads(out.read_text())["report"]["stages"]
        assert [s["threshold"] for s in stages] == [20.0, 60.0]
        assert capsys.readouterr().out.count("t=") == 2

    def test_multi_mode_test_labels_follow_training_rule(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([
            "dataset", "--mode", "multi", "--order", "10", "--holes", "50", "--balanced",
            "--runs", "60", "--test-runs", "30", "--horizon", "2", "--cutoff", "2000",
            "--propagation", "alldiff_regin", "--seed", "4", "--out-prefix", "m",
        ]) == EXIT_OK
        assert main(["cascade", "m_train.csv", "m_test.csv", "--thresholds", "2,3",
                     "--min-rows", "5", "-o", "cascade.json"]) == EXIT_OK
        capsys.readouterr()
        train = read_dataset("m_train.csv")
        test = read_dataset("m_test.csv")
        train, test = train.subset(~train.censored), test.subset(~test.censored)
        stages = json.loads((tmp_path / "cascade.json").read_text())["report"]["stages"]
        assert [s["threshold"] for s in stages] == [2.0, 3.0]
        for s in stages:
            t = s["threshold"]
            median, _ = label_by_median(train.scaled_runtime[train.runtime > t])
            assert s["median"] == median
            shorts = int((test.scaled_runtime[test.runtime > t] < median).sum())
            confusion = s["marginal"]["confusion"]
            assert confusion["short_as_short"] + confusion["short_as_long"] == shorts
            assert 0 < shorts < s["test_rows"]

    def test_small_stage_is_skipped(self, workdir, tmp_path, capsys):
        # 9 uncensored training runs last longer than 60
        out = tmp_path / "cascade.json"
        assert main(["cascade", str(workdir / "small_train.csv"),
                     str(workdir / "small_test.csv"), "--thresholds", "20,60",
                     "--min-rows", "20", "-o", str(out)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1] == (
            "t=60: skipped (only 9 rows above 60.0, need 20)")
        stages = json.loads(out.read_text())["report"]["stages"]
        assert stages[1] == {"threshold": 60.0, "skipped": True,
                             "reason": "only 9 rows above 60.0, need 20"}

    def test_stage_without_test_rows(self, workdir, tmp_path, capsys):
        # 7 training runs but no test run last longer than 100
        test = read_dataset(str(workdir / "small_test.csv"))
        write_dataset(str(tmp_path / "short_test.csv"), test.subset(test.runtime < 100))
        out = tmp_path / "cascade.json"
        assert main(["cascade", str(workdir / "small_train.csv"),
                     str(tmp_path / "short_test.csv"), "--thresholds", "20,100",
                     "--min-rows", "4", "-o", str(out)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1] == (
            "t=100: 7 train rows, no test rows survive")
        stage = json.loads(out.read_text())["report"]["stages"][1]
        assert stage == {"threshold": 100.0, "skipped": False, "train_rows": 7,
                         "median": 985.0, "kappa": stage["kappa"],
                         "leaf_count": stage["leaf_count"], "test_rows": 0}

    def test_unsorted_thresholds_rejected(self, workdir, capsys):
        code = main(["cascade", str(workdir / "small_train.csv"),
                     str(workdir / "small_test.csv"), "--thresholds", "60,20"])
        assert code == EXIT_USAGE
        capsys.readouterr()

    def test_threshold_below_horizon_rejected(self, workdir, capsys):
        code = main(["cascade", str(workdir / "small_train.csv"),
                     str(workdir / "small_test.csv"), "--thresholds", "5,60"])
        assert code == EXIT_USAGE
        capsys.readouterr()


# A fixed policy ahead of a refused one, which a policy call that simulated
# before its checks would price and print before refusing.
REFUSED_AFTER_FIXED = ["--policy", "fixed:50", "--trials", "200"]


class TestPolicy:
    def test_fixed_and_luby(self, workdir, tmp_path, capsys):
        out = tmp_path / "pol.json"
        code = main([
            "policy", str(workdir / "small_rtd.txt"),
            "--policy", "fixed:50", "--policy", "luby:1",
            "--trials", "2000", "--seed", "7", "-o", str(out),
        ])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "optimal fixed cutoff" in text
        assert "fixed:50" in text and "luby:1" in text
        rep = json.loads(out.read_text())["report"]
        assert len(rep["policies"]) == 2
        assert {"p50", "p90", "p99"} <= set(rep["policies"][0]["percentiles"])

    def test_dynamic_synthetic(self, workdir, capsys):
        code = main([
            "policy", str(workdir / "small_rtd.txt"),
            "--policy", "dynamic:20,2000", "--accuracy", "0.9",
            "--trials", "2000", "--seed", "1",
        ])
        assert code == EXIT_OK
        assert "dynamic:O=20,L=2000" in capsys.readouterr().out

    def test_dynamic_model_predictor(self, workdir, capsys):
        code = main([
            "policy", str(workdir / "small_rtd.txt"),
            "--policy", "dynamic:20,3000",
            "--model", str(workdir / "model.json"),
            "--dataset", str(workdir / "small_test.csv"),
            "--trials", "2000", "--seed", "2",
        ])
        assert code in (EXIT_OK, EXIT_UNBOUNDED)
        capsys.readouterr()

    def test_model_policy_off_the_horizon_rejected(self, workdir, tmp_path, capsys):
        # the features were measured at the horizon, 20: the model cannot
        # decide at 60 (or at 10, before they exist)
        for observe in (60, 10):
            out = tmp_path / f"pol{observe}.json"
            code = main([
                "policy", str(workdir / "small_rtd.txt"), *REFUSED_AFTER_FIXED,
                "--policy", f"dynamic:{observe},3000",
                "--model", str(workdir / "model.json"),
                "--dataset", str(workdir / "small_test.csv"), "-o", str(out),
            ])
            assert code == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"horizon 20, not {observe}" in captured.err
            assert not out.exists()

    def test_model_policy_on_the_training_split_rejected(self, workdir, tmp_path, capsys):
        out = tmp_path / "pol.json"
        code = main([
            "policy", str(workdir / "small_rtd.txt"), *REFUSED_AFTER_FIXED,
            "--policy", "dynamic:20,3000",
            "--model", str(workdir / "model.json"),
            "--dataset", str(workdir / "small_train.csv"), "-o", str(out),
        ])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "held-out runs, not the training split" in captured.err
        assert not out.exists()

    def test_model_and_dataset_columns_must_agree(self, workdir, tmp_path, capsys):
        obj = json.loads((workdir / "model.json").read_text())
        obj["columns"] = obj["columns"][::-1]
        model = tmp_path / "reversed.json"
        model.write_text(json.dumps(obj))
        out = tmp_path / "pol.json"
        code = main(["policy", str(workdir / "small_rtd.txt"), *REFUSED_AFTER_FIXED,
                     "--policy", "dynamic:20,3000",
                     "--model", str(model), "--dataset", str(workdir / "small_test.csv"),
                     "-o", str(out)])
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: model and dataset disagree on feature columns\n"
        assert not out.exists()

    def test_model_without_dataset_rejected(self, workdir, capsys):
        code = main([
            "policy", str(workdir / "small_rtd.txt"), *REFUSED_AFTER_FIXED,
            "--policy", "dynamic:60,3000",
            "--model", str(workdir / "model.json"),
        ])
        assert code == EXIT_USAGE
        assert capsys.readouterr() == (
            "", "error: a model predictor needs --dataset for features\n")

    def test_accuracy_outside_the_unit_interval_rejected(self, workdir, tmp_path, capsys):
        out = tmp_path / "pol.json"
        code = main(["policy", str(workdir / "small_rtd.txt"), *REFUSED_AFTER_FIXED,
                     "--policy", "dynamic:20,3000", "--accuracy", "1.5", "-o", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: accuracy must be in [0, 1], got 1.5\n")
        assert not out.exists()

    def test_unbounded_exit_code(self, tmp_path, capsys):
        rtd_path = tmp_path / "tiny_rtd.txt"
        write_rtd(str(rtd_path), [5, 9])
        out = tmp_path / "pol.json"
        code = main(["policy", str(rtd_path), "--policy", "fixed:4",
                     "--trials", "500", "-o", str(out)])
        assert code == EXIT_UNBOUNDED
        assert "UNBOUNDED" in capsys.readouterr().out
        (stats,) = json.loads(out.read_text())["report"]["policies"]
        assert stats["unbounded"] is True
        assert stats["mc_mean_cost"] == "inf"

    def test_run_length_past_int64_is_data_error(self, tmp_path, capsys):
        rtd_path = tmp_path / "huge_rtd.txt"
        write_rtd(str(rtd_path), [5, 100000000000000000000])
        code = main(["policy", str(rtd_path), "--policy", "fixed:5", "--trials", "10"])
        assert code == EXIT_DATA
        assert "2**53" in capsys.readouterr().err

    def test_malformed_header_is_data_error(self, workdir, tmp_path, capsys):
        text = (workdir / "small_rtd.txt").read_text()
        path = tmp_path / "bad_params_rtd.txt"
        path.write_text("# params {oops\n" + text)
        code = main(["policy", str(path), "--policy", "fixed:5", "--trials", "10"])
        assert code == EXIT_DATA
        assert str(path) in capsys.readouterr().err

    def test_non_utf8_file_is_data_error(self, workdir, tmp_path, capsys):
        path = not_utf8(workdir / "small_rtd.txt", tmp_path / "rtd.txt")
        assert main(["policy", path, "--policy", "fixed:5", "--trials", "10"]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8")

    def test_scan_limit(self, workdir, capsys):
        code = main(["policy", str(workdir / "small_rtd.txt"),
                     "--scan-limit", "20", "--accuracy", "0.9"])
        assert code == EXIT_OK
        assert "L=" in capsys.readouterr().out

    def test_scan_limit_with_model_rejected(self, workdir, capsys):
        code = main(["policy", str(workdir / "small_rtd.txt"), *REFUSED_AFTER_FIXED,
                     "--scan-limit", "20", "--model", str(workdir / "model.json")])
        assert code == EXIT_USAGE
        assert capsys.readouterr() == (
            "", "error: --scan-limit uses the synthetic predictor; drop --model\n")

    def test_bad_policy_spec_is_usage_error(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["policy", str(workdir / "small_rtd.txt"),
                  "--policy", "annealed:3"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_multi_instance_files_refused(self, workdir, tmp_path, capsys):
        # a multi-instance file pools one run per instance: resampling it
        # would restart onto a fresh instance
        prefix = tmp_path / "m"
        assert main(["dataset", "--mode", "multi", "--order", "10", "--holes", "50",
                     "--balanced", "--runs", "12", "--test-runs", "6", "--horizon", "2",
                     "--cutoff", "2000", "--seed", "4", "--out-prefix", str(prefix)]) == EXIT_OK
        capsys.readouterr()
        rtd, test = f"{prefix}_rtd.txt", f"{prefix}_test.csv"
        for argv, path in (
            ([rtd, "--policy", "fixed:5"], rtd),
            ([str(workdir / "small_rtd.txt"), "--policy", "fixed:50", "--dataset", test], test),
            ([str(workdir / "small_rtd.txt"), "--policy", "dynamic:2,3000",
              "--model", str(workdir / "model.json"), "--dataset", test], test),
        ):
            out = tmp_path / "pol.json"
            assert main(["policy", *argv, "-o", str(out)]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: {path} comes from dataset --mode multi, one run per instance;"
                " restart policies are priced on the runs of one instance (--mode single)\n")
            assert not out.exists()


class TestReport:
    def test_describes_every_artifact(self, workdir, capsys):
        cases = {
            "small_train.csv": "dataset",
            "small_rtd.txt": "runs; min",
            "model.json": "restartlab model",
            "inst.txt": "70 holes",
        }
        for name, needle in cases.items():
            assert main(["report", str(workdir / name)]) == EXIT_OK
            assert needle in capsys.readouterr().out

    def test_malformed_file_is_data_error(self, workdir, tmp_path, capsys):
        lines = (workdir / "small_rtd.txt").read_text().splitlines()
        lines[0] = "# restartlab rtd x"
        (tmp_path / "bad_version_rtd.txt").write_text("\n".join(lines) + "\n")
        (tmp_path / "bad.json").write_text('{"format": "restartlab model",\n')
        for name in ("bad_version_rtd.txt", "bad.json"):
            assert main(["report", str(tmp_path / name)]) == EXIT_DATA
            assert str(tmp_path / name) in capsys.readouterr().err

    def test_non_utf8_file_is_data_error(self, workdir, tmp_path, capsys):
        for name in ("small_rtd.txt", "small_train.csv", "model.json", "inst.txt"):
            path = not_utf8(workdir / name, tmp_path / name)
            assert main(["report", path]) == EXIT_DATA
            assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8")

    def test_json_of_another_kind_is_data_error(self, tmp_path, capsys):
        # a JSON object is reported only when its format is a restartlab kind
        path = tmp_path / "obj.json"
        for text in ('{"a": 1}', '{"format": "restartlab rtd"}', '{"format": ["restartlab model"]}'):
            path.write_text(text + "\n")
            assert main(["report", str(path)]) == EXIT_DATA
            assert capsys.readouterr() == ("", f"error: {path}: not a restartlab file\n")

    def test_unrecognized_file_is_data_error(self, tmp_path, capsys):
        junk = tmp_path / "junk.txt"
        junk.write_text("hello world\n")
        assert main(["report", str(junk)]) == EXIT_DATA
        capsys.readouterr()


class TestOneDefaultPerKnob:
    def test_solver_harness_and_cli_share_the_defaults(self):
        config = SolverConfig()
        parser = build_parser()
        solve_args = parser.parse_args(["solve", "inst.txt"])
        dataset_args = parser.parse_args(["dataset", "--out-prefix", "x"])
        spec = ExperimentSpec(holes=HoleSpec.balanced(7))
        probe = inspect.signature(find_heavy_tail_instance).parameters["propagation"].default
        levels = {config.propagation, solve_args.propagation, dataset_args.propagation,
                  spec.propagation, probe}
        assert levels == {FORWARD_CHECK}
        assert {config.horizon, dataset_args.horizon, spec.horizon} == {200}
        assert (dataset_args.mode, dataset_args.order, dataset_args.runs,
                dataset_args.test_runs, dataset_args.cutoff, dataset_args.seed) == (
            "single", spec.order, spec.train_runs, spec.test_runs, spec.cutoff,
            spec.master_seed)

    def test_default_config_runs_forward_checking_on_the_desk_instance(self):
        square = generate_complete(18, derive_seed(81, "instance"))
        desk = poke_holes(square, HoleSpec.balanced(7), derive_seed(81, "mask"))
        explicit = SolverConfig(cutoff=100000, propagation=FORWARD_CHECK)
        for i in range(5):
            seed = derive_seed(81, "run", i)
            assert solve(desk, SolverConfig(cutoff=100000), seed) == solve(desk, explicit, seed)


class TestParsing:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "restartlab" in capsys.readouterr().out

    def test_no_verb_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_verb_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_missing_required_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dataset", "--runs", "4"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "restartlab.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "restartlab" in proc.stdout

    def test_import_leaves_scipy_out(self):
        # nor cffi or the kernel, which load on the first forward-checking run
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, restartlab.cli; print(sorted(m for m in sys.modules"
             " if m.split('.')[0] in ('scipy', 'cffi', '_cffi_backend')"
             " or m.startswith('_fc_')))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


# A small pipeline run from its own directory with relative paths, so headers
# echo identical invocations.  Any change to these hashes changes the bytes
# a user gets for an unchanged command line.
GOLDEN_STEPS = [
    ["dataset", "--order", "10", "--holes", "70", "--balanced", "--runs", "48",
     "--test-runs", "16", "--horizon", "20", "--cutoff", "3000",
     "--propagation", "forward_check", "--seed", "7", "--out-prefix", "g"],
    ["train", "g_train.csv", "--kappa-grid", "0.5,0.05", "--seed", "1",
     "-o", "model.json", "--report", "train.json"],
    ["eval", "model.json", "g_test.csv", "-o", "eval.json"],
    ["policy", "g_rtd.txt", "--policy", "fixed:40", "--policy", "luby:2",
     "--policy", "dynamic:20,200", "--accuracy", "0.9", "--trials", "2000",
     "--seed", "3", "-o", "policy.json"],
    ["policy", "g_rtd.txt", "--policy", "dynamic:20,200", "--model", "model.json",
     "--dataset", "g_test.csv", "--trials", "2000", "--seed", "3",
     "-o", "policy_model.json"],
    ["dataset", "--mode", "multi", "--order", "10", "--holes", "50", "--balanced",
     "--runs", "20", "--test-runs", "6", "--horizon", "2", "--cutoff", "2000",
     "--propagation", "alldiff_regin", "--seed", "4", "--out-prefix", "m"],
]
GOLDEN_SHA256 = {
    "g_train.csv": "f3af57ef2bccbc5ae2ddca08414412d787956a5c0cb1c1d6ab07ca081b8ca948",
    "g_test.csv": "c8e8f927baae35777d9793024f1a5254f4ce0caff2b582a8c66d612a1ae8262d",
    "g_rtd.txt": "f4fdd8b18c1028e6db54052bde4ef60206a0c5a73b6a33c9531a3723f7f67f03",
    "model.json": "9b75753c6ea5d5357a0ced389176ed53c10aad796b5d04fc542a17c1398c5613",
    "train.json": "99f002c57d79e490ba5f11a53327f77d333a186f9b44907e6b7bd1bc00f56a68",
    "eval.json": "f058f80d9bd66137ab78262155e0946e02073c87e254f579868452cb5bc4f1f4",
    "policy.json": "30d7b851c9e9d6df555e646ea4ba97216f4845fed5a55c47367fe12dfef67b05",
    "policy_model.json": "c17cd3e4e83768befd0c9ce61e47d2bcc633eaa26ae3a4e0752fe31c412fe7da",
    "m_train.csv": "97e17c35a542f0573472bed0869f27f3474559ff889bdf1570308c43e4bf5fd2",
    "m_test.csv": "72d3f7141a9de1823553b35ae7d2e6a353dfde75b74b490e6dd433ee634f4c21",
    "m_rtd.txt": "2d31fcdcbba05d1ab3245a2499578cf8500da083083d3eb225000f77fd953bca",
}


class TestGoldenBytes:
    def test_pipeline_artifacts_pinned(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for argv in GOLDEN_STEPS:
            assert main(argv) == EXIT_OK, argv
        got = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in GOLDEN_SHA256
        }
        assert got == GOLDEN_SHA256


# Verbs run with no C compiler and an empty kernel cache, from the directory of
# the golden pipeline: those that need the kernel, and those that never do.
NEEDS_KERNEL = [
    ["generate", "--order", "10", "--holes", "70", "--balanced", "-o", "k_inst.txt"],
    ["solve", "inst.txt", "--seed", "5", "-o", "k_solve.json"],
    GOLDEN_STEPS[0][:-1] + ["k"],
    ["policy", "g_rtd.txt", "--policy", "luby:1", "--trials", "100", "-o", "k_policy.json"],
    ["policy", "g_rtd.txt", "--policy", "fixed:900", "--trials", "100", "-o", "k_fixed.json"],
    # the holdout split of tune_kappa is drawn in the kernel
    ["train", "g_train.csv", "--kappa-grid", "0.5,0.05", "-o", "k_model.json"],
    ["cascade", "g_train.csv", "g_test.csv", "--thresholds", "20,40", "--min-rows", "10",
     "--kappa-grid", "0.5,0.05", "-o", "k_cascade.json"],
]
NEEDS_NO_KERNEL = [
    ["eval", "model.json", "g_test.csv", "-o", "k_eval.json"],
    ["report", "g_rtd.txt"],
    ["report", "model.json"],
    ["policy", "g_rtd.txt", "--scan-limit", "20", "-o", "k_scan.json"],
]


class TestKernelUnavailable:
    def test_kernel_verbs_exit_4_and_the_rest_run(self, tmp_path, monkeypatch, capsys):
        work = tmp_path / "work"
        work.mkdir()
        TestGoldenBytes().test_pipeline_artifacts_pinned(work, monkeypatch)
        assert main(["generate", "--order", "10", "--holes", "70", "--balanced",
                     "-o", "inst.txt"]) == EXIT_OK
        capsys.readouterr()
        monkeypatch.setattr(fc_kernel, "_cache_dirs", lambda: [tmp_path / "cache"])
        monkeypatch.setattr(fc_kernel, "COMPILER", "restartlab-missing-cc")
        fc_kernel.load.cache_clear()
        try:
            for argv in NEEDS_KERNEL:
                before = sorted(work.iterdir())
                assert main(argv) == EXIT_KERNEL, argv
                assert capsys.readouterr().err == (
                    "error: the C kernel is unavailable:"
                    " no C compiler (restartlab-missing-cc) on PATH\n"), argv
                assert sorted(work.iterdir()) == before, argv
            for argv in NEEDS_NO_KERNEL:
                assert main(argv) == EXIT_OK, argv
                assert capsys.readouterr().err == "", argv
        finally:
            fc_kernel.load.cache_clear()
        assert list((tmp_path / "cache").iterdir()) == []


# Runs the smoke-size steps of both benchmark workloads through cli.main in
# one interpreter and prints, after each, its verb, exit code and whether
# numpy.random and numpy.ma are loaded.
IMPORT_PROBE = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from pipeline import expected_exit, write_desk_instance
from workloads import WORKLOADS
from restartlab import cli
multi, desk = WORKLOADS["multi-alldiff"], WORKLOADS["desk-fc"]
ms, ds = multi.sizes["smoke"], desk.sizes["smoke"]
write_desk_instance(Path("desk.txt"))
steps = [multi.dataset_argv(Path("m"), ms, 2, None),
         *multi.learn_argvs(81, Path("m"), Path("."), ms),
         desk.dataset_argv(Path("d"), ds, 1, Path("desk.txt")),
         *desk.learn_argvs(81, Path("d"), Path("."), ds)]
loaded = [["start", 0, 0, "numpy.random" in sys.modules, "numpy.ma" in sys.modules]]
for argv in steps:
    code = cli.main(argv)
    loaded.append([argv[0], code, expected_exit(argv),
                   "numpy.random" in sys.modules, "numpy.ma" in sys.modules])
print(json.dumps(loaded))
"""


class TestImports:
    def test_pipeline_steps_load_neither_numpy_random_nor_numpy_ma(self, tmp_path):
        # the seeding, the permutation and the medians avoid numpy.random and
        # np.median's NaN check (numpy.ma); policy loads numpy.ma through
        # np.percentile and np.unique
        root = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(root / "perfbench")], cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])  # after the steps' own lines
        verbs = [verb for verb, *_ in loaded]
        assert verbs == ["start", "dataset", "train", "eval",
                         "dataset", "train", "eval", "cascade", "policy", "policy"]
        assert all(code == expected for _, code, expected, _, _ in loaded)
        assert not any(random for *_, random, _ in loaded)
        first_policy = verbs.index("policy")
        assert not any(ma for *_, ma in loaded[:first_policy])
