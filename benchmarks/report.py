"""Run every workload and print every end-to-end metric with its unit.

    python3 benchmarks/report.py [--seed 1] [--seconds 30] [--trace]

Runs ``run.py --trace 0`` on each workload (correctness checks included),
then with ``--trace`` the traced runs too, and prints one table. Exits 1
when any run fails its checks. The environment the numbers came from is
printed with them; each run's full record is in ``benchmarks/.work/``.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=os.path.dirname(HERE), check=False)
    if out.returncode != 0:
        print(f"{workload} trace={trace}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
        return None
    with open(os.path.join(HERE, ".work", f"{workload}-seed{seed}-trace{trace}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", action="store_true", help="also run the traced runs")
    args = p.parse_args()

    ok = True
    env = None
    traces = (0, 1) if args.trace else (0,)
    for trace in traces:
        for name in WORKLOADS:
            rec = run(name, args.seed, args.seconds, trace)
            if rec is None:
                ok = False
                continue
            ok &= rec["correct"]
            env = rec["env"] | {"numpy": rec["notes"]["numpy"]}
            notes = rec["notes"]
            steal = notes["cpu_steal_share"]
            print(f"\n== {name} (trace={trace}) correct={rec['correct']} "
                  f"failed_frac={rec['failed']}/{rec['attempted']} "
                  f"cpu_steal={'unknown' if steal is None else f'{steal:.1%}'}")
            for metric, m in rec["metrics"].items():
                note = f"  [{notes['tail_note']}]" if metric == "trial_tail_ms" else ""
                print(f"  {metric:48s} {m['value']:14.6g} {m['unit']}{note}")
            if trace:
                print(f"  spans missing: {notes['missing_spans'] or 'none'}; counts repeat across "
                      f"processes: {notes['deterministic']} ({notes['compared_units']} units); "
                      f"traced/untraced trials_per_s {notes['traced_trials_per_s']:.4g}/"
                      f"{notes['untraced_trials_per_s']:.4g}")
                for line in notes.get("roadmap", []):
                    print("  " + line)
    print("\n== environment")
    print(json.dumps(env, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
