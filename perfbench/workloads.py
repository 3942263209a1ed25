"""The benchmark's two workloads: their inputs, their CLI steps and their sizes.

Every step is the argument list a user would type after `restartlab`.  Each
workload builds its inputs from the workload seed alone.

desk-fc solves the paper's desk instance (order 18, 126 balanced holes),
built exactly as `restartlab dataset --seed 81` builds it.  The instance
stays fixed because instance hardness varies too much from seed to seed: at
desk flags, over 30 runs each, the mean run length of the instances drawn
from seeds 1..9 ranged from 5 to 736 choice points, and on two of them every
run ended before the horizon of 50, so the dataset stage fails for lack of
rows.

Both workloads build their dataset at the desk seed 81 and take their
learning and simulation seeds (train, cascade, policy) from the workload
seed.  The dataset's cost follows a few long runs: in multi-alldiff the
shuffles `poke_holes` draws over 300 runs (its deterministic work) spread by
17% of their median across eight seeds, and a desk-fc repetition of a few
dozen heavy-tailed runs would move more still.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

DESK_SEED = 81
DESK_ORDER = 18
DESK_HOLES_PER_LINE = 7
DESK_HORIZON = 50
DESK_CUTOFF = 100_000
DESK_POLICIES = ("fixed:900", "luby:1", "dynamic:50,3000")
DESK_ACCURACY = "0.9"
CASCADE_THRESHOLDS = "50,500,2000"


@dataclass(frozen=True)
class Size:
    """Deterministic work of one repetition."""

    runs: int  # training runs of the dataset stage
    test_runs: int  # held-out runs of the dataset stage
    trials: int  # Monte Carlo trials per policy
    setup_passes: int  # set-ups per benchmark run; setup_s is their median
    # Trials of the model-driven policy, which resamples whole feature rows
    # (126 floats per trial and round): 400k of them peak near 1 GB.
    model_trials: int


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "single" (desk instance) or "multi"
    propagation: str
    horizon: int
    cutoff: int
    parallel: bool  # dataset stage at nproc workers instead of one
    # After train and eval: cascade, the three desk policies and the
    # model-driven policy, the steps that price restart policies.
    policies: bool
    sizes: Dict[str, Size]
    order: int = DESK_ORDER
    holes: int = DESK_ORDER * DESK_HOLES_PER_LINE

    def threads(self, nproc: int) -> int:
        return nproc if self.parallel else 1

    def dataset_argv(self, prefix: Path, size: Size, nproc: int,
                     instance: Optional[Path]) -> List[str]:
        if self.mode == "single":
            source = ["--instance", str(instance)]
        else:
            source = ["--mode", "multi", "--order", str(self.order),
                      "--holes", str(self.holes), "--balanced"]
        return ["dataset", *source,
                "--propagation", self.propagation,
                "--horizon", str(self.horizon), "--cutoff", str(self.cutoff),
                "--runs", str(size.runs), "--test-runs", str(size.test_runs),
                "--seed", str(DESK_SEED), "--threads", str(self.threads(nproc)),
                "--out-prefix", str(prefix)]

    def learn_argvs(self, seed: int, data: Path, out: Path, size: Size) -> List[List[str]]:
        """Steps after the dataset stage; `data` is the dataset's out-prefix."""
        train, test, rtd = f"{data}_train.csv", f"{data}_test.csv", f"{data}_rtd.txt"
        model = str(out / "model.json")
        steps = [
            ["train", train, "--seed", str(seed), "-o", model],
            ["eval", model, test, "-o", str(out / "eval.json")],
        ]
        if self.policies:
            steps.append(["cascade", train, test, "--thresholds", CASCADE_THRESHOLDS,
                          "--seed", str(seed), "-o", str(out / "cascade.json")])
            pol = []
            for spec in DESK_POLICIES:
                pol += ["--policy", spec]
            steps.append(["policy", rtd, *pol, "--accuracy", DESK_ACCURACY,
                          "--trials", str(size.trials), "--seed", str(seed),
                          "-o", str(out / "policy.json")])
            # scored on the held-out split, never on the training split
            steps.append(["policy", rtd, "--policy", f"dynamic:{self.horizon},3000",
                          "--model", model, "--dataset", test,
                          "--trials", str(size.model_trials), "--seed", str(seed),
                          "-o", str(out / "policy_model.json")])
        return steps


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="desk-fc",
            mode="single", propagation="forward_check",
            horizon=DESK_HORIZON, cutoff=DESK_CUTOFF, parallel=False, policies=True,
            sizes={"full": Size(48, 16, 100_000, 5, 10_000),
                   "smoke": Size(24, 12, 2_000, 1, 500)},
        ),
        Workload(
            name="multi-alldiff",
            mode="multi", propagation="alldiff_regin", horizon=10, cutoff=20_000,
            parallel=True, policies=False, order=20, holes=160,
            sizes={"full": Size(36, 12, 20_000, 5, 2_000), "smoke": Size(40, 20, 2_000, 1, 500)},
        ),
    )
}
