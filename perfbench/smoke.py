"""The benchmark's own smoke check, at tiny sizes.

Usage (from the root of a checkout)::

    python3 perfbench/smoke.py

It checks that

1. inputs are a pure function of the seed: two generations of one seed
   hash to the same wire lines, another seed does not;
2. one short run prints every end-to-end metric by name with its unit,
   on a report line and in the final JSON, and reads correct with
   ``error_ratio`` 0;
3. on every workload, an injected wrong category and an injected
   dropped line each drive ``error_ratio`` above 0 (the gate is not
   blind);
4. a traced run prints every per-layer metric with its unit.

Takes about ten minutes; exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import SRC  # noqa: E402


def bench(workload: str, *extra: str) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", *extra],
        capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise SystemExit(f"run.py {workload} {extra} exited {out.returncode}:\n"
                         f"{out.stderr[-3000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stdout


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        raise SystemExit(1)


def main() -> int:
    sys.path.insert(0, str(SRC))
    import inputs
    import ledger
    from run import END_TO_END

    spec = {"drift_seeds": 4, "drift_generations": 3}
    for workload in ("fleet_steady", "firmware_rollout"):
        a = inputs.digest(inputs.wire_payload(
            inputs.workload_messages(workload, 7, 500, spec)))
        b = inputs.digest(inputs.wire_payload(
            inputs.workload_messages(workload, 7, 500, spec)))
        c = inputs.digest(inputs.wire_payload(
            inputs.workload_messages(workload, 8, 500, spec)))
        check(a == b and a != c, f"{workload}: wire lines are a function of the seed")

    res, text = bench("fleet_steady")
    for name, unit in END_TO_END.items():
        check(res["metrics"].get(name, {}).get("unit") == unit
              and f"{name} = " in text and text.count(f" {unit}\n") > 0,
              f"fleet_steady prints {name} in {unit}")
    check(res["correct"] and res["failed"] == 0 and "error_ratio = 0/" in text,
          "fleet_steady is correct with error_ratio 0")

    for workload in ("fleet_steady", "firmware_rollout", "dashboard_retention",
                     "durable_replay"):
        for defect in ("wrong_category", "drop_line"):
            res, _ = bench(workload, "--inject", defect)
            check(not res["correct"] and res["failed"] > 0,
                  f"{workload}: injected {defect} gives error_ratio "
                  f"{res['failed']}/{res['attempted']} > 0")

    res, text = bench("dashboard_retention", "--trace", "1")
    for name, unit in ledger.PER_LAYER.items():
        check(res["metrics"].get(name, {}).get("unit") == unit and f"{name} = " in text,
              f"traced run prints {name} in {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
