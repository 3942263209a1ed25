"""Benchmark of the restartlab pipeline, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk-fc --seed 81 --seconds 55 --trace 0

Workloads, metrics and the span file are described in perfbench/README.md.
Exits 2 without a result when the checkout holds no restartlab sources.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "restartlab" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a restartlab checkout (no src/restartlab or BENCHMARK.json)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    return bench.Bench(bench.parse_args(sys.argv[1:], spec["run_seconds"]), spec).run()


if __name__ == "__main__":
    sys.exit(main())
