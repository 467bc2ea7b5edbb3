"""``dashboard_retention``: operator refreshes over a store under writes.

The SUT process (``launcher --dashboard``) runs ``blocks`` identical
blocks, each on a fresh ``LogStore`` (see ``dashops.run_block``).  The
inputs are the fleet trace of the seed with its ground-truth labels as
categories.  Every refresh is checked against a ``Counter`` reference of
the documents written so far.  Freshness is the median over blocks of
each block's percentile, refreshes pool the blocks, and every time is
scaled to the reference host speed (see ``hostspeed``).
"""

from __future__ import annotations

import json
import statistics
import subprocess

import hostspeed
import inputs
import verify
from common import HERE, median_pct, pct, say


def plan(run) -> dict:
    spec, s = run.spec, run.seconds
    phases = [
        {"name": "nominal", "rate": spec["nominal_rate"],
         "docs": int(spec["nominal_rate"] * spec["phase_share"] * s)},
        {"name": "peak", "rate": spec["peak_rate"],
         "docs": int(spec["peak_rate"] * spec["phase_share"] * s)},
    ]
    n = spec["retention"] + sum(ph["docs"] for ph in phases)
    n += spec["cycles"] * spec["batch"]
    events = inputs.fleet_events(run.seed, n)
    docs = [[*inputs.message_row(e.message), e.label.value] for e in events]
    return {
        "docs": docs, "retention": spec["retention"], "rate_phases": phases,
        "cycles": spec["cycles"], "batch": spec["batch"], "blocks": spec["blocks"],
        "flush_s": spec["flush_s"],
    }


def run_pass(run, p: dict, *, traced: bool) -> dict:
    tag = "traced" if traced else "plain"
    plan_path = run.work / "dashboard.json"
    if not plan_path.exists():
        plan_path.write_text(json.dumps(p))
    dump = run.work / f"dump-{tag}.json"
    args = [str(HERE / "launcher.py"), "--dump", str(dump),
            "--dashboard", str(plan_path)]
    spans = run.span_file() if traced else None
    if spans is not None:
        args += ["--spans", str(spans)]
    if run.inject is not None:
        args += ["--inject", run.inject]
    if run.wait(run.spawn(args, stdout=subprocess.DEVNULL), 170) != 0:
        raise RuntimeError("dashboard SUT failed")
    return {"dump": json.loads(dump.read_text()), "spans": spans}


def analyse(p: dict, dp: dict) -> dict:
    rows = [tuple(r) for r in p["docs"]]
    n_expected = p["retention"] + sum(ph["docs"] for ph in p["rate_phases"])
    n_expected += p["cycles"] * p["batch"]
    failed = attempted = 0
    bad_total = lost_total = 0
    for b in dp["dump"]["blocks"]:
        bad = verify.failed_refreshes(rows, b["refresh"])
        lost = abs(b["index_stats"]["docs"] - n_expected) + abs(b["written"] - n_expected)
        bad_total += bad
        lost_total += lost
        failed += bad + lost
        attempted += n_expected + len(b["refresh"]["times"])
    return {"attempted": attempted, "failed": min(failed, attempted),
            "detail": {"bad_refreshes": bad_total, "lost": lost_total}}


def throughput(block: dict, *, scale: bool) -> float:
    """Documents per second of write time in the closed loop."""
    w = block["writes"]
    busy = hostspeed.scaled(w["times"], w["probes"]) if scale else w["times"]
    return sum(w["docs"]) / sum(busy)


def metrics(dp: dict) -> dict:
    """Freshness: median over blocks of each block's percentile; refreshes
    pooled; every time scaled to the reference host speed."""
    blocks = dp["dump"]["blocks"]
    lat: dict[str, list[float]] = {"nominal": [], "peak": []}
    refresh: list[float] = []
    for b in blocks:
        for phase, xs in b["latency"].items():
            f = hostspeed.factor(b["phase_probes"][phase])
            lat[phase].append([x * f * 1e3 for x in xs])
        r = b["refresh"]
        refresh += [t * 1e3 for t in hostspeed.scaled(r["times"], r["probes"])]
    return {
        "setup_s": statistics.median(
            b["setup_s"] * hostspeed.factor(b["setup_probes"]) for b in blocks),
        "throughput_msgs_s": statistics.median(throughput(b, scale=True) for b in blocks),
        "lat_nominal_p50_ms": median_pct(lat["nominal"], 50),
        "lat_nominal_p95_ms": median_pct(lat["nominal"], 95),
        "lat_peak_p50_ms": median_pct(lat["peak"], 50),
        "lat_peak_p95_ms": median_pct(lat["peak"], 95),
        "refresh_p50_ms": pct(refresh, 50),
        "refresh_p95_ms": pct(refresh, 95),
        "rss_peak_mb": dp["dump"]["rss_peak_mb"],
    }


def report(dp: dict, a: dict) -> None:
    for i, b in enumerate(dp["dump"]["blocks"]):
        say(f"block {i}: setup={b['setup_s']:.3f}s "
            f"write_throughput={throughput(b, scale=False):.0f} docs/s "
            f"host_probe={statistics.median(b['refresh']['probes']) * 1e3:.3f}ms "
            f"refreshes={len(b['refresh']['times'])} "
            f"refresh_p50={pct(b['refresh']['times'], 50) * 1e3:.1f}ms "
            f"refresh_p95={pct(b['refresh']['times'], 95) * 1e3:.1f}ms")
    say("gate: " + " ".join(f"{k}={v}" for k, v in a["detail"].items()))


def execute(run, trace: bool):
    import ledger

    p = plan(run)
    if trace:
        d0 = run_pass(run, p, traced=False)
        a0 = analyse(p, d0)
        d = run_pass(run, p, traced=True)
        a = analyse(p, d)
        report(d, a)
        base = statistics.median(
            throughput(b, scale=True) for b in d0["dump"]["blocks"])
        led = ledger.dashboard_ledger(d, base_throughput=base)
        return led, a0["attempted"] + a["attempted"], a0["failed"] + a["failed"]
    d = run_pass(run, p, traced=False)
    a = analyse(p, d)
    report(d, a)
    return metrics(d), a["attempted"], a["failed"]
