"""Command-line surface.

Verbs: generate, solve, dataset, train, eval, cascade, policy, report.
Exit codes: 0 success, 1 usage error, 2 data/format error, 3 a policy
analysis concluded UNBOUNDED, 4 the C kernel is unavailable (generate,
solve, dataset, train and cascade always need it, policy whenever it
simulates a policy; eval and report never do).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import json
import math
import sys
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__, fc_kernel
from . import io as rio
from .features import summary_columns
from .harness import (
    MULTI_INSTANCE,
    SINGLE_INSTANCE,
    ExperimentSpec,
    find_heavy_tail_instance,
    run_experiment,
)
from .latin import HoleSpec, StructureError, generate_complete, poke_holes
from .learn import (
    DEFAULT_KAPPA_GRID,
    DecisionTreeModel,
    cascade_datasets,
    evaluate,
    marginal_model,
    tune_kappa,
)
from .policy import (
    DynamicPolicy,
    FixedPolicy,
    LubyPolicy,
    ModelPredictor,
    DatasetSource,
    SyntheticPredictor,
    _check_window,
    _window_text,
    optimal_fixed_cutoff,
    scan_dynamic_limits,
    simulate_policy,
)
from .seeds import derive_seed
from .solver import ALLDIFF_REGIN, FORWARD_CHECK, SolverConfig, solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_UNBOUNDED = 3
EXIT_KERNEL = 4


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, leaving 2 for data errors
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return v


def _float_list(text: str) -> List[float]:
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}") from exc


def _default(func, name: str):
    """The default of func's parameter name, for the flag that feeds it."""
    return inspect.signature(func).parameters[name].default


@dataclass(frozen=True)
class _DynamicSpec:
    """dynamic:O,L as given; --model or --accuracy chooses its predictor."""

    observe: int
    limit: float

    def describe(self) -> str:
        # file headers echo the spec, which names no predictor
        return _window_text(self.observe, self.limit) + "none"


def _parse_policy(text: str):
    kind, _, rest = text.partition(":")
    try:
        if kind == "fixed":
            return FixedPolicy(cutoff=int(rest))
        if kind == "luby":
            return LubyPolicy(scale=int(rest)) if rest else LubyPolicy()
        if kind == "dynamic":
            o_str, _, l_str = rest.partition(",")
            limit = math.inf if l_str.strip() in ("inf", "") else float(int(l_str))
            _check_window(int(o_str), limit)
            return _DynamicSpec(int(o_str), limit)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad policy spec {text!r}: {exc}") from exc
    raise argparse.ArgumentTypeError(
        f"unknown policy {text!r}; use fixed:C, luby:S, or dynamic:O,L"
    )


def _hole_spec(args) -> Optional[HoleSpec]:
    if args.holes is None:
        return None
    cells = args.order * args.order
    if not 0 <= args.holes <= cells:
        raise ValueError(
            f"--holes must lie between 0 and {cells} at order {args.order}, got {args.holes}"
        )
    if args.balanced:
        if args.holes % args.order:
            raise ValueError(
                f"balanced holes must divide evenly: {args.holes} over order {args.order}"
            )
        return HoleSpec.balanced(args.holes // args.order)
    return HoleSpec.unbalanced(args.holes)


def _clean(v):
    if v is None or isinstance(v, (int, float, str, bool)):
        return v
    if isinstance(v, (list, tuple)):
        return [_clean(x) for x in v]
    if hasattr(v, "describe"):
        return v.describe()
    return str(v)


def _echo(args: Dict) -> Dict:
    """Invocation parameters for file headers; drops run-machinery knobs so
    outputs stay byte-identical across worker counts."""
    out = {}
    for k, v in args.items():
        if k in ("func", "threads") or v is None:
            continue
        out[k] = _clean(v)
    return out


# -- verbs -------------------------------------------------------------------


def _cmd_generate(args) -> int:
    spec = _hole_spec(args)
    square = generate_complete(args.order, seed=args.seed)
    if spec is not None and (spec.total_holes or spec.holes_per_line):
        square = poke_holes(square, spec, seed=derive_seed(args.seed, "mask"))
    rio.write_instance(args.output, square, params=_echo(vars(args)), master_seed=args.seed)
    print(f"wrote {args.output}: order {square.order}, {square.hole_count()} holes")
    return EXIT_OK


@contextlib.contextmanager
def _instance_file(path: Optional[str]):
    """Names path, the instance file (if any), in the kernel's Latin-property error."""
    try:
        yield
    except StructureError as exc:
        if path is None:
            raise
        raise StructureError(f"{path}: {exc}") from None


def _cmd_solve(args) -> int:
    instance = rio.read_instance(args.instance)
    config = SolverConfig(cutoff=args.cutoff, propagation=args.propagation)
    with _instance_file(args.instance):
        rec = solve(instance, config, seed=args.seed)
    print(
        f"{rec.outcome} choice_points={rec.choice_points}"
        f" post_propagation_size={rec.post_propagation_size}"
        + (" exhausted" if rec.exhausted else "")
    )
    if args.output:
        rio.write_report(
            args.output,
            {
                "outcome": rec.outcome,
                "choice_points": rec.choice_points,
                "post_propagation_size": rec.post_propagation_size,
                "exhausted": rec.exhausted,
                "solution": None
                if rec.assignment is None
                else [list(row) for row in rec.assignment.cells],
            },
            params=_echo(vars(args)),
            master_seed=args.seed,
        )
    return EXIT_OK


def _cmd_dataset(args) -> int:
    if args.instance:
        if args.peak_search:
            raise ValueError("--peak-search needs --order/--holes, not a fixed instance file")
        if args.holes is not None or args.balanced:
            raise ValueError("--holes and --balanced shape generated instances,"
                             " not a fixed instance file")
    instance = None
    if args.holes is None and not args.instance:
        # desk-scale default: order 18 with 7 holes per line
        if args.order < 7:
            raise ValueError(
                f"the default of 7 holes per line needs --order >= 7, got {args.order};"
                " pass --holes"
            )
        args.holes = 7 * args.order
        args.balanced = True
    holes = _hole_spec(args)
    if args.instance:
        instance = rio.read_instance(args.instance)
    if args.peak_search:
        if _FLAG_MODE[args.mode] == MULTI_INSTANCE:
            raise ValueError("--peak-search picks one instance; --mode multi draws one per run")
        # with no --cutoff the probes keep find_heavy_tail_instance's own
        probe_cutoff = {} if args.cutoff is None else {"cutoff": args.cutoff}
        instance, info = find_heavy_tail_instance(
            args.order,
            holes,
            master_seed=args.seed,
            probe_runs=args.probe_runs,
            ratio=args.tail_ratio,
            propagation=args.propagation,
            **probe_cutoff,
        )
        if instance is None:
            raise rio.DataFormatError(
                "peak search found no heavy-tailed instance within "
                f"{len(info['trials'])} candidates"
            )
        if info["median"] < args.horizon:
            # every run would end before its features are measured
            raise rio.DataFormatError(
                f"peak search chose candidate {info['chosen']} with probe median"
                f" {info['median']:g}, below the horizon {args.horizon}"
            )
        print(
            f"peak search: candidate {info['chosen']} "
            f"median {info['median']:.0f}, max/median {info['ratio']:.1f}"
        )
    spec = ExperimentSpec(
        mode=_FLAG_MODE[args.mode],
        order=args.order,
        holes=holes if instance is None else None,
        instance=instance,
        train_runs=args.runs,
        test_runs=args.test_runs,
        horizon=args.horizon,
        cutoff=args.cutoff,
        propagation=args.propagation,
        master_seed=args.seed,
    )
    prefix = args.out_prefix
    train_path = f"{prefix}_train.csv"
    test_path = f"{prefix}_test.csv" if args.test_runs else None
    rtd_path = f"{prefix}_rtd.txt"
    with _instance_file(args.instance):
        train, test, rtd, info = run_experiment(
            spec,
            threads=args.threads,
            train_path=train_path,
            test_path=test_path,
            rtd_path=rtd_path,
            params=_echo(vars(args)),
        )
    tc, sc = info["train"], info["test"]
    print(
        f"train: {tc['rows']} rows ({tc['under_horizon']} under horizon,"
        f" {tc['cutoff_hit']} cutoff) of {tc['total']} runs; median {info['median']:g}"
    )
    if test is not None:
        print(
            f"test:  {sc['rows']} rows ({sc['under_horizon']} under horizon,"
            f" {sc['cutoff_hit']} cutoff) of {sc['total']} runs"
        )
    print(f"distribution: {info['rtd_size']} solved lengths -> {rtd_path}")
    return EXIT_OK


def _check_uncensored(path: str, ds) -> None:
    """A data error naming path, the file of ds, when ds has no uncensored row."""
    if ds.censored.all():
        raise rio.DataFormatError(f"{path}: no uncensored rows")


def _cmd_train(args) -> int:
    ds = rio.read_dataset(args.train)
    if ds.columns != summary_columns():
        raise rio.DataFormatError(
            f"{args.train}: column schema does not match the feature registry"
        )
    _check_uncensored(args.train, ds)
    usable = ds.subset(~ds.censored)
    result = tune_kappa(
        usable.X,
        usable.is_short,
        grid=tuple(args.kappa_grid),
        seed=args.seed,
        columns=ds.columns,
    )
    model = result.model
    model.training_median = ds.median
    model.registry_hash = ds.provenance.get("meta", {}).get("registry_hash")
    holdout = {
        "holdout_scores": {repr(k): v for k, v in result.holdout_scores.items()},
        "holdout_accuracy": result.holdout_accuracy,
        "training_rows": usable.size,
    }
    rio.write_model(
        args.output,
        model,
        params=_echo(vars(args)),
        master_seed=args.seed,
        extra={"kappa_grid": list(args.kappa_grid), "split_seed": result.split_seed, **holdout},
    )
    print(
        f"kappa {model.kappa:g} -> {model.leaf_count} leaves"
        f" (holdout accuracy {result.holdout_accuracy:.3f}); wrote {args.output}"
    )
    if args.report:
        rio.write_report(
            args.report,
            {"kappa": model.kappa, "leaf_count": model.leaf_count, **holdout},
            params=_echo(vars(args)),
            master_seed=args.seed,
        )
    return EXIT_OK


def _eval_pair(model: DecisionTreeModel, test) -> Dict:
    learned = evaluate(model, test.X, test.is_short)
    ns, nl = model.training_counts
    base = marginal_model(np.r_[np.ones(ns, bool), np.zeros(nl, bool)])
    marginal = evaluate(base, test.X, test.is_short)
    return {
        "test_rows": learned.size,
        "model": asdict(learned),
        "marginal": asdict(marginal),
    }


def _cmd_eval(args) -> int:
    model = rio.read_model(args.model)
    test = rio.read_dataset(args.test)
    if model.columns and model.columns != test.columns:
        raise rio.DataFormatError("model and dataset disagree on feature columns")
    _check_uncensored(args.test, test)
    usable = test.subset(~test.censored)
    report = _eval_pair(model, usable)
    print(
        f"model: accuracy {report['model']['accuracy']:.3f},"
        f" log score {report['model']['avg_log_score']:.4f}"
    )
    print(
        f"marginal: accuracy {report['marginal']['accuracy']:.3f},"
        f" log score {report['marginal']['avg_log_score']:.4f}"
    )
    if args.output:
        rio.write_report(args.output, report, params=_echo(vars(args)))
    return EXIT_OK


def _cmd_cascade(args) -> int:
    if not args.thresholds:
        raise ValueError("need at least one threshold")
    if sorted(args.thresholds) != list(args.thresholds):
        raise ValueError("thresholds must be ascending")
    train = rio.read_dataset(args.train)
    test = rio.read_dataset(args.test)
    train_u = train.subset(~train.censored)
    test_u = test.subset(~test.censored)
    horizon = train.provenance.get("meta", {}).get("horizon")
    if horizon is not None and args.thresholds[0] < horizon:
        raise ValueError(f"thresholds start below the horizon {horizon}")
    stages = cascade_datasets(train_u, args.thresholds, min_rows=args.min_rows)
    rows = []
    for i, stage in enumerate(stages):
        if stage.skipped:
            rows.append({"threshold": stage.threshold, "skipped": True, "reason": stage.reason})
            print(f"t={stage.threshold:g}: skipped ({stage.reason})")
            continue
        sub = stage.dataset
        result = tune_kappa(
            sub.X,
            sub.is_short,
            grid=tuple(args.kappa_grid),
            seed=derive_seed(args.seed, "cascade", i),
            columns=sub.columns,
        )
        sub_test = test_u.subset(test_u.runtime > stage.threshold).relabeled(sub.median)
        entry = {
            "threshold": stage.threshold,
            "skipped": False,
            "train_rows": sub.size,
            "median": sub.median,
            "kappa": result.kappa,
            "leaf_count": result.model.leaf_count,
        }
        if sub_test.size:
            entry.update(_eval_pair(result.model, sub_test))
            print(
                f"t={stage.threshold:g}: {sub.size} train rows, median {sub.median:g},"
                f" accuracy {entry['model']['accuracy']:.3f}"
                f" (marginal {entry['marginal']['accuracy']:.3f})"
            )
        else:
            entry["test_rows"] = 0
            print(f"t={stage.threshold:g}: {sub.size} train rows, no test rows survive")
        rows.append(entry)
    if args.output:
        rio.write_report(
            args.output, {"stages": rows}, params=_echo(vars(args)), master_seed=args.seed
        )
    return EXIT_OK


def _cmd_policy(args) -> int:
    rtd = rio.read_rtd(args.rtd)
    model = rio.read_model(args.model) if args.model else None
    rows, meta = None, {}
    if args.dataset:
        ds = rio.read_dataset(args.dataset)
        meta = ds.provenance.get("meta", {})
    rtd_flag = rtd.provenance["params"].get("mode")
    for path, mode in ((args.rtd, _FLAG_MODE.get(rtd_flag)), (args.dataset, meta.get("mode"))):
        if mode == MULTI_INSTANCE:
            # run i solved instance i, so resampling the runs would restart
            # onto a fresh instance, which no restart policy does
            raise ValueError(
                f"{path} comes from dataset --mode multi, one run per instance;"
                " restart policies are priced on the runs of one instance (--mode single)"
            )
    if args.dataset and model is not None:
        # the runs every model policy is priced on, and predicted once
        _check_uncensored(args.dataset, ds)
        rows = DatasetSource(ds)
    # every check runs before the first line is printed
    if args.scan_limit is not None:
        if model is not None:
            raise ValueError("--scan-limit uses the synthetic predictor; drop --model")
        scan = scan_dynamic_limits(rtd, args.scan_limit, args.accuracy)
    runs = []
    for policy in args.policies or []:
        source = rtd
        if isinstance(policy, _DynamicSpec):
            if model is not None:
                if rows is None:
                    raise ValueError("a model predictor needs --dataset for features")
                if model.columns and model.columns != rows.dataset.columns:
                    raise rio.DataFormatError("model and dataset disagree on feature columns")
                # the model decides where its features were measured, on
                # runs it was not trained on
                horizon = meta.get("horizon")
                if horizon is not None and policy.observe != horizon:
                    raise ValueError(
                        f"a model policy observes at the dataset's horizon {horizon},"
                        f" not {policy.observe}"
                    )
                if meta.get("split") == "train":
                    raise ValueError(
                        "a model policy is scored on held-out runs, not the training split"
                    )
                policy = DynamicPolicy(policy.observe, policy.limit, ModelPredictor(model))
                source = rows
            else:
                policy = DynamicPolicy(
                    policy.observe, policy.limit, SyntheticPredictor(args.accuracy)
                )
        runs.append((policy, source))
    c_star, c_cost = optimal_fixed_cutoff(rtd)
    report: Dict = {
        "runs": rtd.size,
        "optimal_fixed": {"cutoff": c_star, "expected_steps": c_cost},
    }
    print(f"optimal fixed cutoff {c_star} -> expected {c_cost:.1f} steps")
    if args.scan_limit is not None:
        report["limit_scan"] = {"observe": args.scan_limit, "entries": scan}
        for e in scan[:5]:
            print(
                f"  L={e['limit']}: E(runs)={e['expected_runs']:.3f},"
                f" E(total) <= {e['expected_total_ub']:.1f}"
            )
    results = []
    hit_unbounded = False
    for policy, source in runs:
        stats = simulate_policy(
            source, policy, trials=args.trials, master_seed=args.seed,
            run_budget=args.run_budget,
        )
        results.append(asdict(stats))
        hit_unbounded = hit_unbounded or stats.unbounded
        mc = "UNBOUNDED" if stats.unbounded else f"{stats.mc_mean_cost:.1f} +- {stats.mc_se_cost:.1f}"
        print(f"{stats.policy}: simulated mean cost {mc} over {stats.trials} trials")
    report["policies"] = results
    if args.output:
        rio.write_report(args.output, report, params=_echo(vars(args)), master_seed=args.seed)
    return EXIT_UNBOUNDED if hit_unbounded else EXIT_OK


def _cmd_report(args) -> int:
    path = args.file
    head = rio._read_text(path, 512)
    if head.lstrip().startswith("{"):
        obj = rio._read_envelope(path, "model", "report")
        kind = obj["format"]
        print(f"{path}: {kind} (tool {obj.get('tool_version')})")
        body = obj.get("report", obj.get("tree"))
        print(json.dumps(rio._jsonable(body), indent=2, sort_keys=True))
        return EXIT_OK
    if "restartlab dataset" in head:
        ds = rio.read_dataset(path)
        meta = ds.provenance.get("meta", {})
        print(
            f"{path}: dataset, {ds.size} rows x {len(ds.columns)} features,"
            f" median {ds.median:g}, censored {int(ds.censored.sum())}"
        )
        for k in ("total", "under_horizon", "rows", "cutoff_hit", "mode", "horizon"):
            if k in meta:
                print(f"  {k}: {meta[k]}")
        return EXIT_OK
    if "restartlab rtd" in head:
        rtd = rio.read_rtd(path)
        q = np.percentile(rtd.lengths, [0, 50, 90, 99, 100])
        print(
            f"{path}: {rtd.size} runs; min {q[0]:.0f}, median {q[1]:.0f},"
            f" p90 {q[2]:.0f}, p99 {q[3]:.0f}, max {q[4]:.0f}"
        )
        return EXIT_OK
    if "restartlab instance" in head or head[:1].isdigit():
        inst = rio.read_instance(path)
        print(f"{path}: order {inst.order}, {inst.hole_count()} holes")
        return EXIT_OK
    raise rio.DataFormatError(f"{path}: unrecognized file")


# -- parser ------------------------------------------------------------------
#
# A flag that feeds a library parameter takes that parameter's default.

_MODE_FLAG = {SINGLE_INSTANCE: "single", MULTI_INSTANCE: "multi"}
_FLAG_MODE = {flag: mode for mode, flag in _MODE_FLAG.items()}


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="restartlab", description=__doc__)
    p.add_argument("--version", action="version", version=f"restartlab {__version__}")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("generate", help="write a quasigroup-with-holes instance")
    g.add_argument("--order", type=_positive_int, required=True)
    g.add_argument("--holes", type=int, default=0, help="total holes to punch")
    g.add_argument("--balanced", action="store_true", help="equal holes per row/column")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=_cmd_generate)

    s = sub.add_parser("solve", help="run the randomized solver once")
    s.add_argument("instance")
    s.add_argument("--seed", type=int, default=_default(solve, "seed"))
    s.add_argument("--cutoff", type=_positive_int, default=SolverConfig.cutoff)
    s.add_argument(
        "--propagation", choices=[FORWARD_CHECK, ALLDIFF_REGIN],
        default=SolverConfig.propagation,
    )
    s.add_argument("-o", "--output", default=None, help="write a run report")
    s.set_defaults(func=_cmd_solve)

    d = sub.add_parser("dataset", help="generate labeled train/test datasets")
    d.add_argument("--mode", choices=list(_FLAG_MODE), default=_MODE_FLAG[ExperimentSpec.mode])
    d.add_argument("--order", type=_positive_int, default=ExperimentSpec.order)
    d.add_argument("--holes", type=int, default=None,
                   help="total holes (default 7 per line, balanced, at any --order)")
    d.add_argument("--balanced", action="store_true")
    d.add_argument("--instance", default=None, help="fixed instance file (single mode)")
    d.add_argument("--runs", type=_positive_int, default=ExperimentSpec.train_runs)
    d.add_argument("--test-runs", type=int, default=ExperimentSpec.test_runs)
    d.add_argument("--horizon", type=_positive_int, default=ExperimentSpec.horizon)
    d.add_argument("--cutoff", type=_positive_int, default=ExperimentSpec.cutoff,
                   help="safety cap per run")
    d.add_argument(
        "--propagation", choices=[FORWARD_CHECK, ALLDIFF_REGIN],
        default=ExperimentSpec.propagation,
    )
    d.add_argument("--seed", type=int, default=ExperimentSpec.master_seed)
    d.add_argument("--threads", type=_positive_int,
                   default=_default(run_experiment, "threads"))
    d.add_argument("--peak-search", action="store_true",
                   help="scan candidate instances for a heavy-tailed one first")
    d.add_argument("--probe-runs", type=_positive_int,
                   default=_default(find_heavy_tail_instance, "probe_runs"))
    d.add_argument("--tail-ratio", type=float,
                   default=_default(find_heavy_tail_instance, "ratio"))
    d.add_argument("--out-prefix", required=True)
    d.set_defaults(func=_cmd_dataset)

    t = sub.add_parser("train", help="tune and fit the run-length classifier")
    t.add_argument("train")
    t.add_argument("--kappa-grid", type=_float_list, default=DEFAULT_KAPPA_GRID)
    t.add_argument("--seed", type=int, default=_default(tune_kappa, "seed"))
    t.add_argument("-o", "--output", required=True)
    t.add_argument("--report", default=None)
    t.set_defaults(func=_cmd_train)

    e = sub.add_parser("eval", help="evaluate a model against a test dataset")
    e.add_argument("model")
    e.add_argument("test")
    e.add_argument("-o", "--output", default=None)
    e.set_defaults(func=_cmd_eval)

    c = sub.add_parser("cascade", help="per-threshold conditional models")
    c.add_argument("train")
    c.add_argument("test")
    c.add_argument("--thresholds", type=_float_list, required=True)
    c.add_argument("--kappa-grid", type=_float_list, default=DEFAULT_KAPPA_GRID)
    c.add_argument("--min-rows", type=_positive_int,
                   default=_default(cascade_datasets, "min_rows"))
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("-o", "--output", default=None)
    c.set_defaults(func=_cmd_cascade)

    po = sub.add_parser("policy", help="compare restart policies on a run-length file")
    po.add_argument("rtd")
    po.add_argument("--policy", dest="policies", action="append", type=_parse_policy,
                    metavar="fixed:C|luby:S|dynamic:O,L")
    po.add_argument("--accuracy", type=float, default=1.0,
                    help="synthetic predictor accuracy for dynamic policies")
    po.add_argument("--trials", type=_positive_int, default=100_000)
    po.add_argument("--run-budget", type=_positive_int,
                    default=_default(simulate_policy, "run_budget"))
    po.add_argument("--seed", type=int, default=0)
    po.add_argument("--model", default=None, help="model file for a trained predictor")
    po.add_argument("--dataset", default=None, help="dataset supplying predictor features")
    po.add_argument("--scan-limit", type=_positive_int, default=None, metavar="O",
                    help="scan candidate give-up points for this observation point")
    po.add_argument("-o", "--output", default=None)
    po.set_defaults(func=_cmd_policy)

    r = sub.add_parser("report", help="summarize any produced file")
    r.add_argument("file")
    r.set_defaults(func=_cmd_report)
    return p


# Built on the first call, not at import, and reused by every later one.
_parser = functools.lru_cache(maxsize=None)(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (rio.DataFormatError, StructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except fc_kernel.KernelUnavailable as exc:
        print(f"error: the C kernel is unavailable: {exc}", file=sys.stderr)
        return EXIT_KERNEL


if __name__ == "__main__":
    sys.exit(main())
