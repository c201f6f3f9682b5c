"""horizon-lab benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: kk_sweep (equilibrium-bound), mems_sweep (integrator-bound),
painleve1_cli (``analyze --jobs nproc`` subprocess). With ``--trace 0`` the
run measures the end-to-end metrics; with ``--trace 1`` it wraps the
program's entry points in spans and measures the per-layer metrics. Every
run is checked against an independent SciPy t_max oracle after timing.
Human-readable lines go first; the last line of stdout is the JSON result.
See NOTES.md for the metrics, the known failures and recorded spreads.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "horizon_lab" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'horizon_lab'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench import Run, machine_facts
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload; choose from {', '.join(WORKLOADS)}")
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    try:
        result = run.measure()
    finally:
        run.close()
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in run.lines:
        print("  " + line)
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
