"""``durable_replay``: ``simulate`` through every durable layer.

Each job is one SUT process running::

    simulate --incident --wal-dir <tmp> --fsync batch --store-nodes 3
             --via-broker --template-cache --duration D --rate R --seed S

``jobs`` jobs run at the nominal simulated rate and ``jobs`` at the
peak rate.  Per job: set-up is spawn until ``TivanCluster.run`` is
entered, throughput is produced messages per wall second of
``TivanCluster.run``, freshness is each message's wall-clock dwell from
``LogBroker.publish`` to the replicated store's ``bulk_index`` returning
(the durable index), and peak-rate jobs end with the operator's
refreshes of the replicated store.  The gate requires ``conservation OK``
with ``lost=0 duplicated=0``, every produced message indexed with the
uncached reference category, and every refresh equal to its reference.
Freshness is the median over the jobs of a rate of each job's percentile,
refreshes pool the peak jobs, every time but set-up is scaled to the
reference host speed by the probes each job ran (see ``hostspeed``), and
set-up is the median over all jobs.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
from pathlib import Path

import hostspeed
import inputs
import verify
from common import HERE, TRACED_REFRESHES, median_pct, pct, say


def job(run, name: str, rate: float, *, refreshes: int, spans: Path | None) -> dict:
    wal = run.work / f"wal-{name}"
    shutil.rmtree(wal, ignore_errors=True)
    dump = run.work / f"dump-{name}.json"
    args = [str(HERE / "launcher.py"), "--dump", str(dump),
            "--refreshes", str(refreshes)]
    if spans is not None:
        args += ["--spans", str(spans)]
    if run.inject is not None:
        args += ["--inject", run.inject]
    args += ["--", "simulate", "--model-dir", str(run.model),
             "--duration", str(run.spec["duration_s"]), "--rate", str(rate),
             "--seed", str(run.seed), "--incident", "--wal-dir", str(wal),
             "--fsync", "batch", "--store-nodes", "3", "--via-broker",
             "--template-cache"]
    t_spawn = run.now()
    if run.wait(run.spawn(args, stdout=subprocess.DEVNULL), 170) != 0:
        raise RuntimeError(f"durable job {name} failed")
    d = json.loads(dump.read_text())
    # set-up is imports and file reads, which the interpreter probe does
    # not track: it stays unscaled; the run is scaled (see hostspeed)
    d["setup_s"] = d["run_enter"] - t_spawn
    d["run_raw_s"] = d["run_exit"] - d["run_enter"]
    d["speed"] = hostspeed.factor(dt for _t, dt in d["probes"])
    d["run_s"] = d["run_raw_s"] * d["speed"]
    d["wal_bytes"] = sum(f.stat().st_size for f in wal.rglob("*") if f.is_file())
    d["rate"] = rate
    shutil.rmtree(wal, ignore_errors=True)
    return d


def run_pass(run, *, traced: bool, refreshes: int) -> dict:
    run.train()
    spec = run.spec
    jobs: dict[str, list] = {"nominal": [], "peak": []}
    n_jobs = 1 if traced else spec["jobs"]
    for k in range(n_jobs):
        for kind in ("nominal", "peak"):
            spans = run.span_file() if traced and kind == "peak" else None
            jobs[kind].append(job(
                run, f"{kind}{k}", spec[f"{kind}_rate"],
                refreshes=refreshes if kind == "peak" else 0, spans=spans,
            ))
    return {"jobs": jobs, "spans": run.span_file() if traced else None}


def analyse(run, p: dict) -> dict:
    from repro.datagen.workload import standard_simulation_events

    failed = attempted = 0
    detail: dict[str, dict] = {}
    refs: dict[float, tuple] = {}
    for kind, jobs in p["jobs"].items():
        for k, d in enumerate(jobs):
            if d["rate"] not in refs:
                events = standard_simulation_events(
                    duration_s=run.spec["duration_s"], background_rate=d["rate"],
                    seed=run.seed, incident=True,
                )
                expected = [tuple(inputs.message_row(e.message)) for e in events]
                cats = verify.reference_categories(run.model, [e[4] for e in expected])
                # refreshes see the documents in time order
                rows = sorted((*e, cats[e[4]]) for e in expected)
                refs[d["rate"]] = (expected, cats, rows)
            expected, cats, rows = refs[d["rate"]]
            stored = [tuple(x[:5]) for x in d["docs"]]
            lost = len(verify.missing_rows(expected, stored))
            wrong = verify.category_mismatches(d["docs"], cats)
            cons = d["conservation"]
            cons_bad = int(not (cons["ok"] and cons["lost"] == 0
                                and cons["duplicated"] == 0
                                and d["cli_conservation_ok"]))
            quarantined = (d["pipeline"] or {}).get("quarantined", 0)
            n_ref = len(d["refresh"]["times"])
            refresh = dict(d["refresh"], n_docs=[len(rows)] * n_ref)
            bad = verify.failed_refreshes(rows, refresh)
            failed += lost + wrong + cons_bad + quarantined + bad
            attempted += len(expected) + n_ref + 1
            detail[f"{kind}{k}"] = {
                "lost": lost, "wrong_category": wrong, "quarantined": quarantined,
                "bad_refreshes": bad, "conservation": cons["line"],
            }
    return {"attempted": attempted, "failed": min(failed, attempted), "detail": detail}


def report(p: dict, a: dict) -> None:
    for kind, jobs in p["jobs"].items():
        for k, d in enumerate(jobs):
            say(f"job {kind}{k}: rate={d['rate']} produced={d['produced']} "
                f"setup={d['setup_s']:.3f}s run={d['run_raw_s']:.3f}s "
                f"throughput={d['produced'] / d['run_raw_s']:.0f} msg/s "
                f"host_factor={d['speed']:.3f}")
    for name, det in a["detail"].items():
        say(f"gate {name}: " + " ".join(f"{k}={v}" for k, v in det.items()))


def metrics(p: dict) -> dict:
    """Freshness: median over the jobs of a rate of each job's percentile;
    refreshes pooled; every time scaled to the reference speed."""
    jobs = p["jobs"]
    every = jobs["nominal"] + jobs["peak"]

    def dwell(kind):
        return [[x * d["speed"] * 1e3 for x in d["dwell"]] for d in jobs[kind]]

    refresh = [t * 1e3 for d in jobs["peak"]
               for t in hostspeed.scaled(d["refresh"]["times"], d["refresh"]["probes"])]
    nominal, peak = dwell("nominal"), dwell("peak")
    return {
        "setup_s": statistics.median(d["setup_s"] for d in every),
        "throughput_msgs_s": sum(d["produced"] for d in every)
        / sum(d["run_s"] for d in every),
        "lat_nominal_p50_ms": median_pct(nominal, 50),
        "lat_nominal_p95_ms": median_pct(nominal, 95),
        "lat_peak_p50_ms": median_pct(peak, 50),
        "lat_peak_p95_ms": median_pct(peak, 95),
        "refresh_p50_ms": pct(refresh, 50),
        "refresh_p95_ms": pct(refresh, 95),
        "rss_peak_mb": max(d["rss_peak_mb"] for d in every),
    }


def execute(run, trace: bool):
    import ledger

    if trace:
        p0 = run_pass(run, traced=False, refreshes=0)
        a0 = analyse(run, p0)
        p = run_pass(run, traced=True, refreshes=TRACED_REFRESHES)
        a = analyse(run, p)
        report(p, a)
        base = p0["jobs"]["peak"][0]["produced"] / p0["jobs"]["peak"][0]["run_s"]
        led = ledger.durable_ledger(p, base_throughput=base)
        return led, a0["attempted"] + a["attempted"], a0["failed"] + a["failed"]
    p = run_pass(run, traced=False, refreshes=run.spec["refreshes"])
    a = analyse(run, p)
    report(p, a)
    return metrics(p), a["attempted"], a["failed"]
