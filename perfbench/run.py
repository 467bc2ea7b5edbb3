"""The repository benchmark: one command, every metric, a correctness gate.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fleet_steady --seed 1 --seconds 8 --trace 0

Workloads (``perfbench/README.md`` says why each exists):

- ``fleet_steady`` / ``firmware_rollout``: the real ``listen`` path over
  loopback TCP, driven open loop by ``loadgen`` (``wl_listen``);
- ``dashboard_retention``: an operator refreshing dashboards over a
  retention store while writes arrive (``wl_dashboard``);
- ``durable_replay``: ``simulate`` with the WAL, checkpoints, a 3-node
  replicated store, the broker and the template cache (``wl_durable``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload untraced, then traced, and prints the per-layer metrics
(``ledger``).  Report lines come first; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``error_ratio`` = ``failed / attempted`` is printed with
its base on the report lines.  Exit code 0 means the run completed;
``correct`` says whether every output matched its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import CONFIG, ROOT, SRC, say  # noqa: E402

#: the model is trained from a corpus of this scale and seed
CORPUS_SCALE = 0.005
CORPUS_SEED = 1
CLASSIFIER = "cnb"

#: end-to-end metrics and their units (``BENCHMARK.json`` lists the same)
END_TO_END = {
    "setup_s": "s",
    "throughput_msgs_s": "msg/s",
    "lat_nominal_p50_ms": "ms",
    "lat_nominal_p95_ms": "ms",
    "lat_peak_p50_ms": "ms",
    "lat_peak_p95_ms": "ms",
    "refresh_p50_ms": "ms",
    "refresh_p95_ms": "ms",
    "rss_peak_mb": "MB",
}


class Run:
    """Work directory, child processes and the model of one invocation."""

    now = staticmethod(time.monotonic)

    def __init__(self, workload: str, seed: int, seconds: int, inject: str | None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.inject = inject
        self.spec = CONFIG["workloads"][workload]
        self.work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.procs: list[subprocess.Popen] = []
        self.model = self.work / "model"

    def spawn(self, args: list[str], **kw) -> subprocess.Popen:
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env, **kw)
        self.procs.append(proc)
        return proc

    def wait(self, proc: subprocess.Popen, timeout: float) -> int:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"child {proc.args[1:3]} timed out")

    def wait_for(self, path: Path, proc: subprocess.Popen, timeout: float) -> float:
        """Poll until ``path`` holds JSON; returns the monotonic time seen."""
        deadline = self.now() + timeout
        while True:
            try:
                json.loads(path.read_text())
                return self.now()
            except (OSError, ValueError):
                pass
            if proc.poll() is not None:
                raise RuntimeError(f"{proc.args[1:3]} exited {proc.returncode} early")
            if self.now() > deadline:
                raise RuntimeError(f"timed out waiting for {path.name}")
            time.sleep(0.001)

    def train(self) -> None:
        """Train the model from the CLI once per invocation (not set-up)."""
        if self.model.exists():
            return
        corpus = self.work / "corpus.jsonl"
        for args in (
            ["-m", "repro.cli", "generate", "--scale", str(CORPUS_SCALE),
             "--seed", str(CORPUS_SEED), "--out", str(corpus)],
            ["-m", "repro.cli", "train", "--corpus", str(corpus),
             "--model-dir", str(self.model), "--classifier", CLASSIFIER],
        ):
            if self.wait(self.spawn(args, stdout=subprocess.DEVNULL), 120) != 0:
                raise RuntimeError(f"model step failed: {args[2]}")

    def span_file(self) -> Path:
        """Where a traced run writes its spans (kept after the run)."""
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        return out / f"{self.workload}-seed{self.seed}.spans.json"

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(self.work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="repository benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(CONFIG["workloads"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--inject", choices=["wrong_category", "drop_line"], default=None,
                    help="plant a known defect (the smoke check's negative control)")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"run.py: no program source under {SRC}; run it from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the reference classifier reloads the model

    import ledger
    import wl_dashboard
    import wl_durable
    import wl_listen

    kind = CONFIG["workloads"][args.workload]["kind"]
    module = {"listen": wl_listen, "dashboard": wl_dashboard,
              "durable": wl_durable}[kind]
    run = Run(args.workload, args.seed, args.seconds, args.inject)
    try:
        metrics, attempted, failed = module.execute(run, bool(args.trace))
    finally:
        run.close()
    units = ledger.PER_LAYER if args.trace else END_TO_END
    say(f"error_ratio = {failed}/{attempted} = {failed / attempted:.6f} ratio")
    for name, unit in units.items():
        say(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
