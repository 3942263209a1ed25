"""One benchmark run: set-up passes, timed repetitions, the traced run and the report.

Each workload runs through `restartlab.cli.main` in this process, with the
verbs and flags a user types.  After its set-up, the workload's steps repeat
on identical inputs until --seconds is used up; every end-to-end metric is
the median over those repetitions (set-up time: over the set-up passes).
--trace 1 runs the steps once untraced and then the traced run of
layers.py, and reports the per-layer metrics.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy
import scipy

import restartlab
from layers import UNITS as LAYER_UNITS
from layers import Tracer, duration, self_times, traced_run
from pipeline import (
    Stage,
    artifact_hashes,
    check_dataset,
    check_learning,
    expected_exit,
    run_stage,
    write_desk_instance,
)
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "runs_per_s": "runs/s",
    "choice_points_per_s": "choice_points/s",
    "peak_rss_mb": "MB",
    "ops_failed_ratio": "ratio",
    "test_accuracy": "ratio",
    "log_score_gain": "nats/row",
}


def host_probe_s(n: int = 300_000) -> float:
    """Time a fixed pure-Python loop; recorded next to each repetition, never divided by."""
    t0 = time.perf_counter()
    x = 0
    for i in range(n):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t0


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def environment() -> Dict[str, object]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "restartlab": restartlab.__version__,
        "cpu": cpu,
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def parse_args(argv: Optional[List[str]], run_seconds: float) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=81, help="workload seed (default: the desk seed 81)")
    p.add_argument("--seconds", type=float, default=run_seconds,
                   help="time to spend on repetitions after set-up")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: add the traced run and report per-layer metrics")
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="run counts; smoke is the minimum that exercises every step")
    p.add_argument("--out", default=None,
                   help="directory for artifacts, spans and result.json"
                        " (default .perfbench_out/<workload>-s<seed>-t<trace>)")
    return p.parse_args(argv)


class Bench:
    def __init__(self, args: argparse.Namespace, spec: Dict) -> None:
        self.args = args
        self.spec = spec
        self.wl = WORKLOADS[args.workload]
        self.size = self.wl.sizes[args.size]
        self.env = environment()
        self.nproc = int(self.env["nproc"])
        self.out = Path(args.out).resolve() if args.out else (
            ROOT / ".perfbench_out" / f"{args.workload}-s{args.seed}-t{args.trace}")
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.stages: List[Stage] = []  # every stage attempted, in order
        self.lines: List[str] = []

    def say(self, line: str) -> None:
        self.lines.append(line)
        print(line, flush=True)

    def stage(self, argv: List[str]) -> Stage:
        st = run_stage(argv, expected_exit(argv))
        self.stages.append(st)
        return st

    # -- set-up ------------------------------------------------------------

    def import_probe(self):
        """Import the package in a fresh interpreter, as every CLI invocation does."""
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import restartlab.cli"], cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
            timeout=120,
        )
        st = Stage(["import restartlab.cli"], proc.returncode, time.perf_counter() - t0, proc.stderr)
        if proc.returncode:
            st.problems.append(f"import exits {proc.returncode}: {proc.stderr.strip()[-200:]}")
        self.stages.append(st)

    @staticmethod
    def fresh_dir(name: str) -> Path:
        """Every set-up pass and repetition reuses one relative directory, so the
        paths echoed into file headers, and with them the artifact bytes, repeat."""
        d = Path(name)
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir()
        return d

    def setup(self) -> List[Dict]:
        passes: List[Dict] = []
        for k in range(self.size.setup_passes):
            d = self.fresh_dir("setup")
            t0 = time.perf_counter()
            self.import_probe()
            if self.wl.mode == "single":
                write_desk_instance(d / "desk.txt")
            passes.append({"dir": d, "setup_s": time.perf_counter() - t0,
                           "hashes": artifact_hashes(d)})
            self.say(f"setup {k}: setup_s={passes[-1]['setup_s']:.4f}")
        return passes

    # -- timed repetitions -------------------------------------------------

    def repetition(self, k: int, setup: Dict) -> Dict:
        wl, size, seed = self.wl, self.size, self.args.seed
        probe = host_probe_s()
        d = self.fresh_dir("rep")
        data = d / "data"
        argvs = [wl.dataset_argv(data, size, self.nproc, setup["dir"] / "desk.txt"),
                 *wl.learn_argvs(seed, data, d, size)]
        stages: List[Stage] = []
        for argv in argvs:
            stages.append(self.stage(argv))
            if stages[-1].failed:
                break
        # the timed phase is the stages alone, without the checks between them
        rep = {"dir": d, "wall_s": sum(s.wall_s for s in stages), "host_probe_s": probe,
               "stages": stages, "stage_s": [[s.verb, s.wall_s] for s in stages]}
        dataset_work = {}
        if not stages[0].failed:
            dataset_work = check_dataset(stages[0], wl, size, data)
            self._dataset_rates(rep, stages[0], dataset_work)
        found = check_learning(stages, wl, size, d, dataset_work)
        rep["quality"] = {q: found[q] for q in ("test_accuracy", "log_score_gain") if q in found}
        rep["work"] = dict(dataset_work)
        rep["work"].update({w: found[w] for w in ("trials", "kappa_grid", "cascade_models")
                            if w in found})
        rep["hashes"] = artifact_hashes(d)
        return rep

    def repetitions(self, setups: List[Dict]) -> List[Dict]:
        reps: List[Dict] = []
        t0 = time.perf_counter()
        while True:
            rep = self.repetition(len(reps), setups[0])
            if reps:
                self._same_work(rep, reps[0], rep["stages"][0])
            reps.append(rep)
            self.say(
                f"rep {len(reps) - 1}: wall_s={rep['wall_s']:.4f}"
                f" host_probe_s={rep['host_probe_s']:.4f}" + self._rates_text(rep)
                + f" work={json.dumps(rep['work'], sort_keys=True)}"
                + "".join(f" {q}={v:.6g}" for q, v in rep["quality"].items())
            )
            if any(s.failed for s in rep["stages"]) or self.args.trace:
                return reps
            typical = statistics.median(r["wall_s"] for r in reps)
            if time.perf_counter() - t0 + typical > self.args.seconds:
                return reps

    @staticmethod
    def _dataset_rates(holder: Dict, stage, work: Dict[str, int]) -> None:
        if not work:
            return
        holder["dataset_wall_s"] = stage.wall_s
        holder["runs_per_s"] = work["runs"] / stage.wall_s
        holder["choice_points_per_s"] = work["choice_points"] / stage.wall_s

    @staticmethod
    def _rates_text(holder: Dict) -> str:
        return "".join(f" {k}={holder[k]:.6g}" for k in ("runs_per_s", "choice_points_per_s")
                       if k in holder)

    @staticmethod
    def _same_work(holder: Dict, first: Dict, stage) -> None:
        """A repetition whose work counts differ from the first one's counts as failed."""
        if holder["work"] != first["work"]:
            stage.problems.append(f"work {holder['work']} differs from the first {first['work']}")

    # -- report --------------------------------------------------------------

    def end_to_end(self, setups: List[Dict], reps: List[Dict]) -> Dict[str, Dict]:
        samples = {
            "wall_s": [r["wall_s"] for r in reps],
            "setup_s": [p["setup_s"] for p in setups],
            "runs_per_s": [r["runs_per_s"] for r in reps if "runs_per_s" in r],
            "choice_points_per_s": [r["choice_points_per_s"] for r in reps
                                    if "choice_points_per_s" in r],
            "peak_rss_mb": [peak_rss_mb()],
            "ops_failed_ratio": [self.failed() / len(self.stages)],
        }
        for q in ("test_accuracy", "log_score_gain"):
            samples[q] = [r["quality"][q] for r in reps if q in r["quality"]]
        return {k: {**quartiles(v), "unit": UNITS[k]} for k, v in samples.items() if v}

    def failed(self) -> int:
        return sum(1 for s in self.stages if s.failed)

    def run(self) -> int:
        os.chdir(self.out)
        self.say(f"{self.wl.name} seed={self.args.seed} size={self.args.size}"
                 f" seconds={self.args.seconds:g} trace={self.args.trace}"
                 f" environment={json.dumps(self.env, sort_keys=True)}")
        setups = self.setup()
        reps = self.repetitions(setups) if not any(s.failed for s in self.stages) else []
        layer: Dict[str, float] = {}
        if self.args.trace and reps and not self.failed():
            layer = self.traced(reps[0])
        stats = self.end_to_end(setups, reps)
        for st in self.stages:
            if st.failed:
                self.say(f"FAILED {' '.join(st.argv)}: {'; '.join(st.problems)}")
                for line in st.output.strip().splitlines()[-5:]:
                    self.say(f"  | {line}")
        for name, s in stats.items():
            self.say(f"metric {name} {s['median']:.6g} {s['unit']}"
                     f" (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})")
        for group in (setups, reps):
            if not group:
                continue
            for fname, digest in group[0]["hashes"].items():
                self.say(f"sha256 {group[0]['dir']}/{fname} {digest}")
            same = all(h["hashes"] == group[0]["hashes"] for h in group)
            self.say(f"{group[0]['dir']}: artifact hashes identical across all"
                     f" {len(group)}: {'yes' if same else 'NO'}")
        for name in sorted(layer):
            self.say(f"layer {name} {layer[name]:.6g} {LAYER_UNITS[name]}")

        wanted = self.spec["per_layer"] if self.args.trace else self.spec["end_to_end"]
        source = layer if self.args.trace else {k: v["median"] for k, v in stats.items()}
        metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                   for m in wanted if m["name"] in source}
        correct = not self.failed() and len(metrics) == len(wanted)
        result = {"correct": correct, "attempted": len(self.stages), "failed": self.failed(),
                  "metrics": metrics}
        detail = {
            "workload": self.wl.name, "seed": self.args.seed, "seconds": self.args.seconds,
            "size": self.args.size, "environment": self.env, "end_to_end": stats,
            "per_layer": layer, "lines": self.lines,
            "repetitions": [{k: r[k] for k in ("wall_s", "stage_s", "host_probe_s", "work",
                                               "quality")}
                            for r in reps],
        }
        (self.out / "result.json").write_text(json.dumps({**result, "detail": detail},
                                                         indent=1, sort_keys=True, default=str))
        print(json.dumps(result, sort_keys=True))
        return 0 if correct else 1

    def traced(self, rep: Dict) -> Dict[str, float]:
        wl = self.wl
        data = rep["dir"] / "data"
        tracer = Tracer()
        scratch = self.out / "traced"
        scratch.mkdir()
        st = Stage(["traced-run"], 0, 0.0, "")
        self.stages.append(st)
        metrics: Dict[str, float] = {}
        t0 = time.perf_counter()
        try:
            metrics, problems = traced_run(
                tracer, wl, self.args.seed, self.size, data, rep["dir"] / "model.json", scratch,
                rep["dataset_wall_s"], wl.threads(self.nproc), rep["work"])
            st.problems.extend(problems)
        except Exception as exc:  # reported as a failed stage with whatever spans were closed
            st.problems.append(f"traced run raised {exc!r}")
        st.wall_s = time.perf_counter() - t0
        spans_path = self.out / "spans.jsonl"
        tracer.write(spans_path)
        self.say(f"spans: {len(tracer.spans)} written to {spans_path}")
        for layer, secs in sorted(self_times(tracer.spans).items()):
            self.say(f"self_time {layer} {secs:.4f} s")
        replay = tracer.named("harness.replay")
        if replay and "dataset_wall_s" in rep:
            self.say(f"trace.replay_minus_untraced_dataset_s "
                     f"{duration(replay[0]) - rep['dataset_wall_s']:.4f} s"
                     f" (untraced dataset stage at {wl.threads(self.nproc)} worker(s))")
        return metrics
