"""Run `restartlab` verbs in-process, check what they wrote and count their work."""

from __future__ import annotations

import hashlib
import io
import json
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from restartlab import cli
from restartlab import io as rio
from restartlab.latin import HoleSpec, generate_complete, poke_holes
from restartlab.learn import predict_batch
from restartlab.seeds import derive_seed

from workloads import (
    CASCADE_THRESHOLDS,
    DESK_HOLES_PER_LINE,
    DESK_ORDER,
    DESK_POLICIES,
    DESK_SEED,
    Size,
    Workload,
)


@dataclass
class Stage:
    """One CLI invocation: its arguments, exit code, wall time and failed checks."""

    argv: List[str]
    code: int
    wall_s: float
    output: str
    problems: List[str] = field(default_factory=list)

    @property
    def verb(self) -> str:
        return self.argv[0]

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_stage(argv: List[str], expect: int = 0) -> Stage:
    """Call `restartlab.cli.main(argv)` with its output captured."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(buf), redirect_stderr(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed stage, not a crashed benchmark
            traceback.print_exc()
            code = -1
    wall = time.perf_counter() - t0
    stage = Stage(list(argv), code, wall, buf.getvalue())
    if code != expect:
        stage.problems.append(f"exit code {code}, expected {expect}")
    return stage


def expected_exit(argv: List[str]) -> int:
    """0, except for a model-driven `policy` on a model that can never call a
    held-out run SHORT in time: that policy is unbounded and the CLI exits 3.

    A tuned tree that is a single leaf does so, because median labels make
    SHORT the minority class.  This recomputes the condition from the model
    and the dataset files, independently of `restartlab.policy`.
    """
    if argv[0] != "policy" or "--model" not in argv:
        return 0
    model = rio.read_model(argv[argv.index("--model") + 1])
    ds = rio.read_dataset(argv[argv.index("--dataset") + 1])
    ds = ds.subset(~ds.censored)
    observe, limit = (int(v) for v in argv[argv.index("--policy") + 1].split(":")[1].split(","))
    short = predict_batch(model, ds.X) > 0.5
    can_succeed = (ds.runtime <= observe) | (short & (ds.runtime <= limit))
    return 0 if can_succeed.any() else cli.EXIT_UNBOUNDED


def write_desk_instance(path: Path) -> None:
    """The paper's desk instance, derived as `restartlab dataset --seed 81` derives it."""
    square = generate_complete(DESK_ORDER, derive_seed(DESK_SEED, "instance"))
    instance = poke_holes(square, HoleSpec.balanced(DESK_HOLES_PER_LINE),
                          derive_seed(DESK_SEED, "mask"))
    params = {"order": DESK_ORDER, "holes": DESK_ORDER * DESK_HOLES_PER_LINE, "balanced": True}
    rio.write_instance(str(path), instance, params=params, master_seed=DESK_SEED)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_hashes(directory: Path) -> Dict[str, str]:
    return {p.name: sha256(p) for p in sorted(directory.iterdir()) if p.is_file()}


def _header_meta(path: str) -> Dict:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            if line.startswith("# meta "):
                return json.loads(line[len("# meta "):])
    return {}


def dataset_paths(prefix: Path) -> Tuple[str, str, str]:
    return f"{prefix}_train.csv", f"{prefix}_test.csv", f"{prefix}_rtd.txt"


def check_dataset(stage: Stage, wl: Workload, size: Size, prefix: Path) -> Dict[str, int]:
    """Parse the three dataset artifacts, check their bookkeeping, return the work done.

    Choice points are the solved lengths in the run-length file plus the
    safety cutoff for every run that hit it; a run stopped at the cutoff has
    used exactly that many choice points.
    """
    train_path, test_path, rtd_path = dataset_paths(prefix)
    try:
        splits = {"train": rio.read_dataset(train_path), "test": rio.read_dataset(test_path)}
        rtd = rio.read_rtd(rtd_path)
        rtd_meta = _header_meta(rtd_path)
    except (OSError, ValueError) as exc:
        stage.problems.append(f"dataset artifacts do not parse: {exc}")
        return {}
    expected = {"train": size.runs, "test": size.test_runs}
    total = rows = under = cut = 0
    for name, ds in splits.items():
        meta = ds.provenance.get("meta", {})
        t, r, u, c = (meta.get(k) for k in ("total", "rows", "under_horizon", "cutoff_hit"))
        if None in (t, r, u, c) or t != r + u + c:
            stage.problems.append(f"{name} meta breaks total = rows + under_horizon + cutoff_hit: {meta}")
            continue
        if t != expected[name]:
            stage.problems.append(f"{name} meta counts {t} runs, {expected[name]} were launched")
        if int(ds.censored.sum()) != c or int((~ds.censored).sum()) != r:
            stage.problems.append(f"{name} rows disagree with the meta's rows/cutoff_hit")
        total, rows, under, cut = total + t, rows + r, under + u, cut + c
    if rtd.size != total - cut or rtd_meta.get("solved") != rtd.size or rtd_meta.get("total") != total:
        stage.problems.append(
            f"run-length file holds {rtd.size} solved lengths (meta {rtd_meta}),"
            f" expected {total - cut} of {total}"
        )
    return {
        "runs": total,
        "rows": rows,
        "under_horizon": under,
        "cutoff_hit": cut,
        "choice_points": int(rtd.lengths.sum()) + wl.cutoff * cut,
        "instances": total if wl.mode == "multi" else 1,
    }


def _report(stage: Stage, path: Path) -> Optional[Dict]:
    try:
        return rio.read_report(str(path))["report"]
    except (OSError, ValueError, KeyError) as exc:
        stage.problems.append(f"{path.name} does not parse: {exc}")
        return None


def check_learning(stages: List[Stage], wl: Workload, size: Size, out: Path,
                   dataset_work: Dict[str, int]) -> Dict[str, float]:
    """Check the train/eval/cascade/policy artifacts; return their work and quality figures."""
    by_output = {s.argv[s.argv.index("-o") + 1]: s for s in stages if "-o" in s.argv}
    found: Dict[str, float] = {}
    model_path = out / "model.json"
    st = by_output.get(str(model_path))
    if st is not None and not st.failed:
        try:
            model = rio.read_model(str(model_path))
            extra = json.loads(model_path.read_text(encoding="utf-8"))["extra"]
        except (OSError, ValueError, KeyError) as exc:
            st.problems.append(f"model does not parse: {exc}")
        else:
            if model.leaf_count < 1 or model.kappa not in extra["kappa_grid"]:
                st.problems.append(f"model has {model.leaf_count} leaves at kappa {model.kappa}")
            found["kappa_grid"] = len(extra["kappa_grid"])
            found["training_rows"] = extra["training_rows"]
    st = by_output.get(str(out / "eval.json"))
    if st is not None and not st.failed:
        rep = _report(st, out / "eval.json")
        if rep is not None:
            acc = rep["model"]["accuracy"]
            if not 0.0 <= acc <= 1.0 or rep["test_rows"] != rep["model"]["size"]:
                st.problems.append(f"eval report is inconsistent: {rep['model']}")
            if "training_rows" in found and found["training_rows"] + rep["test_rows"] != dataset_work.get("rows"):
                st.problems.append(
                    f"train rows {found['training_rows']} + test rows {rep['test_rows']}"
                    f" != dataset rows {dataset_work.get('rows')}"
                )
            found["test_accuracy"] = acc
            found["log_score_gain"] = rep["model"]["avg_log_score"] - rep["marginal"]["avg_log_score"]
    st = by_output.get(str(out / "cascade.json"))
    if st is not None and not st.failed:
        rep = _report(st, out / "cascade.json")
        if rep is not None:
            want = [float(t) for t in CASCADE_THRESHOLDS.split(",")]
            if [e["threshold"] for e in rep["stages"]] != want:
                st.problems.append(f"cascade stages {rep['stages']} do not match {want}")
            found["cascade_models"] = sum(1 for e in rep["stages"] if not e["skipped"])
    trials = 0
    for name, count, want in (("policy.json", len(DESK_POLICIES), size.trials),
                              ("policy_model.json", 1, size.model_trials)):
        st = by_output.get(str(out / name))
        if st is None or st.failed:
            continue
        rep = _report(st, out / name)
        if rep is None:
            continue
        pols = rep["policies"]
        unbounded = st.code == cli.EXIT_UNBOUNDED
        if len(pols) != count or any(p["unbounded"] != unbounded or p["trials"] != want
                                     for p in pols):
            st.problems.append(f"{name}: expected {count} policies of {want} trials,"
                               f" {'all' if unbounded else 'none'} unbounded")
        trials += sum(p["trials"] for p in pols)
    if trials:
        found["trials"] = trials
    return found
