"""Fast self-check of the benchmark at tiny sizes.

    python3 perfbench/selfcheck.py

For every workload in ``BENCHMARK.json``: the untraced run reports
exactly the end-to-end metrics and the traced run exactly the per-layer
metrics, each with its declared unit; both are correct with
``ok_share`` 1; and a run against a deliberately wrong reference drives
``ok_share`` below 1.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, *flags: str) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--tiny", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise AssertionError(f"{workload} {flags}: exit {out.returncode}\n"
                             f"{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    return result


def check_metrics(result: dict, declared: list, label: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise AssertionError(
            f"{label}: metrics differ; missing {sorted(set(want) - set(got))}"
            f", extra {sorted(set(got) - set(want))}, units "
            f"{ {k: (got[k], want[k]) for k in got if k in want and got[k] != want[k]} }"
        )


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for entry in spec["workloads"]:
        name = entry["name"]
        plain = run(name, "--trace", "0")
        check_metrics(plain, spec["end_to_end"], f"{name} untraced")
        ok = plain["metrics"]["ok_share"]["value"]
        if not plain["correct"] or ok != 1.0:
            raise AssertionError(f"{name}: not correct ({plain})")
        traced = run(name, "--trace", "1")
        check_metrics(traced, spec["per_layer"], f"{name} traced")
        if not traced["correct"]:
            raise AssertionError(f"{name} traced: not correct")
        wrong = run(name, "--trace", "0", "--corrupt-reference")
        if wrong["correct"] or wrong["metrics"]["ok_share"]["value"] >= 1.0:
            raise AssertionError(
                f"{name}: a wrong reference did not lower ok_share"
            )
        print(f"ok  {name}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as error:
        print(f"FAIL {error}", file=sys.stderr)
        sys.exit(1)
