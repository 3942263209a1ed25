"""File formats: headers, round-trips, and error reporting."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from restartlab.io import (
    DataFormatError,
    read_dataset,
    read_instance,
    read_model,
    read_report,
    read_rtd,
    write_dataset,
    write_instance,
    write_model,
    write_report,
    write_rtd,
)
from restartlab.latin import (
    HoleSpec, PartialLatinSquare, UNBALANCED, generate_complete, poke_holes,
)
from restartlab.learn import Dataset, grow_tree, label_by_median, predict_batch


def sample_dataset(n=12, features=3, seed=0, censor_every=None):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, features)).round(6)
    runtime = rng.integers(1, 500, size=n)
    censored = np.zeros(n, dtype=bool)
    if censor_every:
        censored[::censor_every] = True
    median, labels = label_by_median(runtime)
    return Dataset(
        columns=[f"feat{j}__avg" for j in range(features)],
        X=X,
        runtime=runtime,
        is_short=labels,
        censored=censored,
        divisor=np.ones(n),
        median=median,
    )


class TestInstanceFiles:
    def test_round_trip(self, tmp_path):
        sq = generate_complete(7, seed=1)
        inst = poke_holes(sq, HoleSpec(mode=UNBALANCED, total_holes=20), seed=2)
        p = str(tmp_path / "inst.txt")
        write_instance(p, inst, params={"order": 7}, master_seed=42)
        back = read_instance(p)
        assert back == inst

    def test_header_and_holes_format(self, tmp_path):
        sq = generate_complete(3, seed=0)
        inst = poke_holes(sq, HoleSpec(mode=UNBALANCED, total_holes=2), seed=1)
        p = str(tmp_path / "inst.txt")
        write_instance(p, inst, master_seed=7)
        text = open(p).read()
        assert text.startswith("# restartlab instance 1\n")
        assert "# master_seed 7" in text
        body = [l for l in text.splitlines() if not l.startswith("#")][1:]
        assert sum(row.split().count(".") for row in body) == 2
        assert read_instance(p) == inst

    def test_reads_without_header(self, tmp_path):
        p = str(tmp_path / "bare.txt")
        with open(p, "w") as fh:
            fh.write("2\n1 2\n2 1\n")
        sq = read_instance(p)
        assert sq.order == 2
        assert sq.cells[1][0] == 2

    def test_bad_token(self, tmp_path):
        p = str(tmp_path / "bad.txt")
        with open(p, "w") as fh:
            fh.write("2\n1 x\n2 1\n")
        with pytest.raises(DataFormatError):
            read_instance(p)

    def test_missing_rows(self, tmp_path):
        p = str(tmp_path / "short.txt")
        with open(p, "w") as fh:
            fh.write("3\n1 2 3\n")
        with pytest.raises(DataFormatError):
            read_instance(p)

    def test_lines_past_the_last_row_rejected(self, tmp_path):
        p = str(tmp_path / "long.txt")
        rows = "3\n1 2 3\n2 3 1\n3 1 2\n"
        with open(p, "w") as fh:
            fh.write(rows + "2 2 2\n")
        with pytest.raises(DataFormatError, match=f"{re.escape(p)}: line 5: '2 2 2'"):
            read_instance(p)
        with open(p, "w") as fh:
            fh.write(rows + "\n  \n# a comment\n\n")
        assert read_instance(p).cells[2] == (3, 1, 2)

    def test_wrong_width(self, tmp_path):
        p = str(tmp_path / "wide.txt")
        with open(p, "w") as fh:
            fh.write("2\n1 2 1\n2 1\n")
        with pytest.raises(DataFormatError):
            read_instance(p)

    def test_out_of_range_symbol(self, tmp_path):
        p = str(tmp_path / "range.txt")
        with open(p, "w") as fh:
            fh.write("2\n1 3\n2 1\n")
        with pytest.raises(DataFormatError):
            read_instance(p)

    def test_empty_file(self, tmp_path):
        p = str(tmp_path / "empty.txt")
        open(p, "w").close()
        with pytest.raises(DataFormatError):
            read_instance(p)

    def test_wrong_kind_rejected(self, tmp_path):
        p = str(tmp_path / "kind.txt")
        with open(p, "w") as fh:
            fh.write("# restartlab rtd 1\n2\n1 2\n2 1\n")
        with pytest.raises(DataFormatError):
            read_instance(p)


class TestDatasetFiles:
    def test_round_trip_exact(self, tmp_path):
        ds = sample_dataset(censor_every=5)
        p = str(tmp_path / "d.csv")
        write_dataset(p, ds, params={"runs": 12}, master_seed=3)
        back = read_dataset(p)
        assert back.columns == ds.columns
        assert (back.X == ds.X).all()
        assert (back.runtime == ds.runtime).all()
        assert (back.is_short == ds.is_short).all()
        assert (back.censored == ds.censored).all()
        assert (back.divisor == ds.divisor).all()
        assert back.median == ds.median

    def test_float_repr_round_trip(self, tmp_path):
        ds = sample_dataset()
        ds.X[0, 0] = 0.1 + 0.2  # a value whose short decimal form is lossy
        ds.X[1, 1] = 1e-17
        p = str(tmp_path / "d.csv")
        write_dataset(p, ds)
        back = read_dataset(p)
        assert back.X[0, 0] == ds.X[0, 0]
        assert back.X[1, 1] == ds.X[1, 1]

    def test_byte_identical_rewrites(self, tmp_path):
        ds = sample_dataset()
        p1 = str(tmp_path / "a.csv")
        p2 = str(tmp_path / "b.csv")
        write_dataset(p1, ds, params={"x": 1}, master_seed=5)
        write_dataset(p2, ds, params={"x": 1}, master_seed=5)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_header_contents(self, tmp_path):
        ds = sample_dataset()
        p = str(tmp_path / "d.csv")
        write_dataset(p, ds, params={"b": 2, "a": 1}, master_seed=9,
                      meta={"split": "train"})
        text = open(p).read()
        assert text.startswith("# restartlab dataset 1\n")
        assert '# params {"a": 1, "b": 2}' in text
        assert "# master_seed 9" in text
        meta_line = [l for l in text.splitlines() if l.startswith("# meta ")][0]
        meta = json.loads(meta_line[len("# meta "):])
        assert meta["split"] == "train"
        assert meta["median"] == ds.median

    def test_no_timestamps(self, tmp_path):
        import re
        import time

        ds = sample_dataset()
        p = str(tmp_path / "d.csv")
        write_dataset(p, ds)
        text = open(p).read()
        year = time.strftime("%Y")
        assert year not in text.split("\n")[0]
        assert not re.search(r"\d{4}-\d{2}-\d{2}", text)

    def test_empty_dataset_writes_header_only(self, tmp_path):
        ds = sample_dataset(n=12).subset(np.zeros(12, dtype=bool))
        p = str(tmp_path / "d.csv")
        write_dataset(p, ds)
        back = read_dataset(p)
        assert back.size == 0

    def test_missing_median_rejected(self, tmp_path):
        p = str(tmp_path / "d.csv")
        # NaN and Infinity are what json.dumps writes for those floats
        for meta in ("", '# meta {"median": "x"}\n', '# meta {"median": [1]}\n',
                     '# meta {"median": NaN}\n', '# meta {"median": Infinity}\n',
                     '# meta {"median": true}\n', '# meta {"median": "7"}\n'):
            with open(p, "w") as fh:
                fh.write("# restartlab dataset 1\n" + meta)
                fh.write("f__avg,runtime,label,censored,divisor\n")
                fh.write("1.0,10,SHORT,0,1.0\n")
            with pytest.raises(DataFormatError, match=re.escape(p)):
                read_dataset(p)

    def test_non_finite_values_rejected(self, tmp_path):
        # a feature value or a divisor that is not finite, on the second row
        p = str(tmp_path / "d.csv")
        for bad_row in ("nan,10,SHORT,0,1.0", "-inf,10,SHORT,0,1.0", "1.0,10,SHORT,0,inf",
                        "1.0,10,SHORT,0,NaN"):
            with open(p, "w") as fh:
                fh.write('# restartlab dataset 1\n# meta {"median": 10}\n')
                fh.write("f__avg,runtime,label,censored,divisor\n")
                fh.write("1.0,10,SHORT,0,1.0\n" + bad_row + "\n")
            with pytest.raises(DataFormatError,
                               match=re.escape(f"{p}: line 5: a value is not finite")):
                read_dataset(p)

    def test_negative_runtime_and_nonpositive_divisor_rejected(self, tmp_path):
        p = str(tmp_path / "d.csv")
        for bad_row in ("1.0,-7,SHORT,0,1.0", "1.0,10,SHORT,0,0.0", "1.0,10,SHORT,0,-2.5",
                        "1.0,9223372036854775808,LONG,0,1.0"):
            with open(p, "w") as fh:
                fh.write('# restartlab dataset 1\n# meta {"median": 10}\n')
                fh.write("f__avg,runtime,label,censored,divisor\n")
                fh.write("1.0,10,SHORT,0,1.0\n" + bad_row + "\n")
            with pytest.raises(DataFormatError, match=re.escape(f"{p}: line 5: ")):
                read_dataset(p)

    def test_bad_label_rejected(self, tmp_path):
        p = str(tmp_path / "d.csv")
        with open(p, "w") as fh:
            fh.write('# restartlab dataset 1\n# meta {"median": 10}\n')
            fh.write("f__avg,runtime,label,censored,divisor\n")
            fh.write("1.0,10,MAYBE,0,1.0\n")
        with pytest.raises(DataFormatError):
            read_dataset(p)

    def test_bad_censored_flag_rejected(self, tmp_path):
        p = str(tmp_path / "d.csv")
        with open(p, "w") as fh:
            fh.write('# restartlab dataset 1\n# meta {"median": 10}\n')
            fh.write("f__avg,runtime,label,censored,divisor\n")
            fh.write("1.0,10,SHORT,2,1.0\n")
        with pytest.raises(DataFormatError):
            read_dataset(p)

    def test_field_count_mismatch_rejected(self, tmp_path):
        p = str(tmp_path / "d.csv")
        with open(p, "w") as fh:
            fh.write('# restartlab dataset 1\n# meta {"median": 10}\n')
            fh.write("f__avg,runtime,label,censored,divisor\n")
            fh.write("1.0,10,SHORT,0\n")
        with pytest.raises(DataFormatError):
            read_dataset(p)

    def test_tail_columns_enforced(self, tmp_path):
        p = str(tmp_path / "d.csv")
        with open(p, "w") as fh:
            fh.write('# restartlab dataset 1\n# meta {"median": 10}\n')
            fh.write("f__avg,runtime,label,divisor,censored\n")
            fh.write("1.0,10,SHORT,1.0,0\n")
        with pytest.raises(DataFormatError):
            read_dataset(p)


class TestRtdFiles:
    def test_round_trip_sorted(self, tmp_path):
        p = str(tmp_path / "r.txt")
        write_rtd(p, [30, 5, 17, 5], params={"runs": 4}, master_seed=1)
        rtd = read_rtd(p)
        assert rtd.lengths.tolist() == [5, 5, 17, 30]
        body = [
            l for l in open(p).read().splitlines() if l and not l.startswith("#")
        ]
        assert body == ["5", "5", "17", "30"]

    def test_empty_rejected(self, tmp_path):
        p = str(tmp_path / "r.txt")
        write_rtd(p, [])
        with pytest.raises(DataFormatError):
            read_rtd(p)

    def test_bad_token_rejected(self, tmp_path):
        p = str(tmp_path / "r.txt")
        with open(p, "w") as fh:
            fh.write("# restartlab rtd 1\n5\nforty\n")
        with pytest.raises(DataFormatError):
            read_rtd(p)

    def test_negative_rejected(self, tmp_path):
        p = str(tmp_path / "r.txt")
        with open(p, "w") as fh:
            fh.write("# restartlab rtd 1\n-3\n")
        with pytest.raises(DataFormatError):
            read_rtd(p)


class TestLineNumbers:
    """An error about a body line names that line's 1-based number in the
    file, whatever '#' lines and blank lines come before the body."""

    CHECKED = settings(max_examples=60, deadline=None,
                       suppress_health_check=[HealthCheck.function_scoped_fixture])

    @staticmethod
    def corrupt(data, path, bad_lines, first=0):
        """Put k >= 0 comment and blank lines among the header lines of the
        file at path, replace body line j >= first by a draw from
        bad_lines(j, line), and return that line's 1-based number in the file."""
        lines = open(path, encoding="utf-8").read().split("\n")[:-1]
        head = [line for line in lines if line.startswith("#")]
        body = lines[len(head):]
        extra = data.draw(st.lists(st.sampled_from(["", "  ", "# a comment", "#"]), max_size=8))
        at = data.draw(st.integers(0, len(head)))
        j = data.draw(st.integers(first, len(body) - 1))
        body[j] = data.draw(bad_lines(j, body[j]))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(head[:at] + extra + head[at:] + body) + "\n")
        return len(head) + len(extra) + j + 1

    @staticmethod
    def replaced(fields, i, value, sep):
        return sep.join(fields[:i] + [value] + fields[i + 1:])

    @staticmethod
    def raises_at(path, number, read):
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: line {number}") + "[: ]"):
            read(path)

    @CHECKED
    @given(data=st.data(), n=st.integers(2, 6))
    def test_instance(self, tmp_path, data, n):
        p = str(tmp_path / "inst.txt")
        write_instance(p, PartialLatinSquare.from_rows(
            [[(r + c) % n + 1 for c in range(n)] for r in range(n)]), master_seed=1)

        def bad(j, line):  # a row; the order line has its own message
            toks = line.split()
            return st.one_of(
                st.just(" ".join(toks[1:])),
                st.just(line + " 1"),
                st.builds(lambda i, t: self.replaced(toks, i, t, " "),
                          st.integers(0, n - 1), st.sampled_from(["x", "0", str(n + 1), "1.0"])),
            )

        self.raises_at(p, self.corrupt(data, p, bad, first=1), read_instance)

    @CHECKED
    @given(data=st.data(), rows=st.integers(1, 6))
    def test_dataset(self, tmp_path, data, rows):
        p = str(tmp_path / "d.csv")
        write_dataset(p, sample_dataset(n=rows, features=2), params={"runs": rows})
        # per field, values that make a row bad: two features, then runtime,
        # label, censored flag and divisor
        bad_fields = [["x", "nan", "-inf"], ["x", "nan", "inf"], ["-7", "1.5"], ["MAYBE"],
                      ["2"], ["0.0", "-1.0", "inf", "x"]]

        def bad(j, line):  # body line 0 is the column header
            fields = line.split(",")
            if j == 0:
                return st.just(",".join(fields[:-1]))
            return st.one_of(
                st.just(",".join(fields[:-1])),
                st.integers(0, len(fields) - 1).flatmap(lambda i: st.sampled_from(
                    bad_fields[i]).map(lambda v: self.replaced(fields, i, v, ","))),
            )

        self.raises_at(p, self.corrupt(data, p, bad), read_dataset)

    @CHECKED
    @given(data=st.data(), lengths=st.lists(st.integers(0, 10**6), min_size=1, max_size=8))
    def test_run_lengths(self, tmp_path, data, lengths):
        p = str(tmp_path / "r.txt")
        write_rtd(p, lengths, params={"runs": len(lengths)}, meta={"horizon": 5})
        bad = st.sampled_from(["forty", "-3", "1.5", str(2**53 + 1), "1 2"])
        self.raises_at(p, self.corrupt(data, p, lambda j, line: bad), read_rtd)


class TestModelFiles:
    def grown(self):
        X = np.array([[0.0, 5.0], [1.0, 4.0], [2.0, 3.0], [3.0, 2.0]])
        y = np.array([True, True, False, False])
        model = grow_tree(X, y, kappa=0.5, columns=["depth__avg", "open__min"])
        model.training_median = 123.5
        model.registry_hash = "abc123"
        return model, X

    def test_round_trip_predictions(self, tmp_path):
        model, X = self.grown()
        p = str(tmp_path / "m.json")
        write_model(p, model, params={"kappa_grid": [0.1]}, master_seed=2)
        back = read_model(p)
        assert back.columns == model.columns
        assert back.kappa == model.kappa
        assert back.training_median == 123.5
        assert back.registry_hash == "abc123"
        assert (predict_batch(back, X) == predict_batch(model, X)).all()

    def test_non_finite_numbers_rejected(self, tmp_path):
        # json.dump writes a NaN or infinite float as NaN or Infinity
        model, _ = self.grown()
        p = str(tmp_path / "m.json")
        write_model(p, model)
        good = json.load(open(p))
        for key in ("kappa", "training_median"):
            for value in (math.nan, math.inf, -math.inf):
                with open(p, "w") as fh:
                    json.dump({**good, key: value}, fh)
                with pytest.raises(DataFormatError, match=re.escape(p)):
                    read_model(p)

    def test_malformed_tree_rejected(self, tmp_path):
        # a count must be a non-negative JSON integer, a threshold a finite number
        model, _ = self.grown()
        p = str(tmp_path / "m.json")
        write_model(p, model)
        good = json.load(open(p))
        bad_counts = (-50, 2.7, 3.0, True, "3", None)
        bad_thresholds = (math.nan, math.inf, -math.inf, "1.5", True, None)
        trees = [{**good["tree"], "left": {**good["tree"]["left"], "n_short": v}}
                 for v in bad_counts]
        trees += [{**good["tree"], "n_long": v} for v in bad_counts]
        trees += [{**good["tree"], "threshold": v} for v in bad_thresholds]
        for tree in trees:
            with open(p, "w") as fh:
                json.dump({**good, "tree": tree}, fh)
            with pytest.raises(DataFormatError, match=re.escape(f"{p}: malformed model")):
                read_model(p)

    def test_tree_stored_by_feature_name(self, tmp_path):
        model, _ = self.grown()
        p = str(tmp_path / "m.json")
        write_model(p, model)
        obj = json.load(open(p))
        assert obj["format"] == "restartlab model"
        assert obj["tree"]["feature"] == "depth__avg"
        assert obj["leaf_count"] == 2
        assert "tool_version" in obj

    def test_unknown_feature_rejected(self, tmp_path):
        model, _ = self.grown()
        p = str(tmp_path / "m.json")
        write_model(p, model)
        obj = json.load(open(p))
        obj["tree"]["feature"] = "nonexistent__stat"
        with open(p, "w") as fh:
            json.dump(obj, fh)
        with pytest.raises(DataFormatError):
            read_model(p)

    def test_not_a_model_rejected(self, tmp_path):
        p = str(tmp_path / "m.json")
        for obj in ({"format": "something else"}, ["restartlab model"]):
            with open(p, "w") as fh:
                json.dump(obj, fh)
            with pytest.raises(DataFormatError):
                read_model(p)

    def test_invalid_json_rejected(self, tmp_path):
        p = str(tmp_path / "m.json")
        with open(p, "w") as fh:
            fh.write("{not json")
        with pytest.raises(DataFormatError):
            read_model(p)

    def test_single_leaf_model(self, tmp_path):
        from restartlab.learn import marginal_model

        model = marginal_model(np.array([True, False, False]))
        p = str(tmp_path / "m.json")
        write_model(p, model)
        back = read_model(p)
        assert back.root.is_leaf
        assert back.training_counts == (1, 2)


class TestReportFiles:
    def test_round_trip(self, tmp_path):
        p = str(tmp_path / "rep.json")
        write_report(p, {"accuracy": 0.75, "n": 10}, params={"cmd": "eval"})
        obj = read_report(p)
        assert obj["report"]["accuracy"] == 0.75
        assert obj["params"]["cmd"] == "eval"

    def test_infinities_serialized(self, tmp_path):
        p = str(tmp_path / "rep.json")
        write_report(p, {"cost": math.inf, "neg": -math.inf, "bad": math.nan})
        text = open(p).read()
        assert "Infinity" not in text  # bare JSON infinities are not valid JSON
        obj = read_report(p)
        assert obj["report"]["cost"] == "inf"
        assert obj["report"]["neg"] == "-inf"
        assert obj["report"]["bad"] == "nan"

    def test_numpy_scalars_serialized(self, tmp_path):
        p = str(tmp_path / "rep.json")
        write_report(p, {"a": np.int64(4), "b": np.float64(0.5), "c": [np.int32(1)]})
        obj = read_report(p)
        assert obj["report"] == {"a": 4, "b": 0.5, "c": [1]}

    def test_wrong_format_rejected(self, tmp_path):
        p = str(tmp_path / "rep.json")
        for obj in ({"format": "restartlab model"}, ["restartlab report"]):
            with open(p, "w") as fh:
                json.dump(obj, fh)
            with pytest.raises(DataFormatError):
                read_report(p)
