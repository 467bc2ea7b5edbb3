"""``fleet_steady`` and ``firmware_rollout``: the real ``listen`` path.

One pass starts ``loadgen`` (it builds the wire lines from the seed
while the model trains), times ``setups`` extra SUT spawns until their
port file appears, then launches the measured SUT and lets the
generator drive it:

    warm-up | round 0 | round 1 | ... | round R-1
    round r = nominal.r (fixed rate) | peak.r (fixed rate) | burst.r

A line's freshness runs from its scheduled send time to the
``LogBroker.commit`` that covers its (partition = host, offset =
per-host ordinal).  A burst sends its lines all at once, so TCP
backpressure paces the sender, and its throughput is lines / (last
commit - first send).  Freshness is the median over rounds of each
round's percentile, the bursts are pooled, and every time is scaled
to the reference host speed by the probes the SUT ran during that phase
(see ``hostspeed``); the raw per-round figures are on the report lines.
"""

from __future__ import annotations

import bisect
import json
import statistics
import subprocess
from pathlib import Path

import hostspeed
import verify
from common import CONFIG, HERE, TRACED_REFRESHES, median_pct, pct, say
from loadgen import schedule


#: untimed warm-up at the nominal rate (fills the template cache)
WARMUP_S = 0.5
#: idle gap after every phase, so one phase's backlog never spills over
GAP_S = 0.3
#: rounds of (nominal, peak, burst)
ROUNDS = 3
#: one fixed-rate phase lasts this share of ``--seconds``
PHASE_SHARE = 0.075
#: SUT spawns whose set-up time is measured (the median is reported)
SETUP_SPAWNS = 5


def plan(run, port_file: Path) -> dict:
    spec = run.spec
    nominal, peak = spec["nominal_rate"], spec["peak_rate"]
    phase_s = run.seconds * PHASE_SHARE
    phases = [{"name": "warmup", "rate": nominal,
               "lines": int(nominal * WARMUP_S), "gap_s": GAP_S}]
    for r in range(ROUNDS):
        phases += [
            {"name": f"nominal.{r}", "rate": nominal,
             "lines": int(nominal * phase_s), "gap_s": GAP_S},
            {"name": f"peak.{r}", "rate": peak,
             "lines": int(peak * phase_s), "gap_s": GAP_S},
            {"name": f"burst.{r}", "rate": None,
             "lines": spec["burst_lines"], "gap_s": spec["burst_gap_s"]},
        ]
    return {
        "workload": run.workload, "seed": run.seed, "spec": spec,
        "phases": phases, "port_file": str(port_file), "wait_s": 120,
        "inputs_out": str(run.work / "inputs.json"),
        "sendlog_out": str(run.work / "sendlog.json"),
    }


def launch(run, tag: str, *, max_messages: int, duration: float,
           refreshes: int, spans: Path | None, inject: str | None):
    """Spawn the SUT; returns (process, dump path, set-up seconds)."""
    port_file = run.work / f"ports-{tag}.json"
    dump = run.work / f"dump-{tag}.json"
    args = [str(HERE / "launcher.py"), "--dump", str(dump),
            "--refreshes", str(refreshes)]
    if spans is not None:
        args += ["--spans", str(spans)]
    if inject is not None:
        args += ["--inject", inject]
    args += ["--", "listen", "--model-dir", str(run.model), "--template-cache",
             "--udp-port", "-1", "--tcp-port", "0", "--port-file", str(port_file),
             "--duration", str(duration)]
    if max_messages:
        args += ["--max-messages", str(max_messages)]
    t_spawn = run.now()
    proc = run.spawn(args, stdout=subprocess.DEVNULL)
    t_up = run.wait_for(port_file, proc, 120)
    return proc, dump, t_up - t_spawn


def run_pass(run, *, traced: bool, setups: int, refreshes: int) -> dict:
    """One generator + SUT pass; returns everything the metrics need."""
    tag = "traced" if traced else "plain"
    p = plan(run, run.work / f"ports-{tag}.json")
    plan_path = run.work / f"plan-{tag}.json"
    plan_path.write_text(json.dumps(p))
    Path(p["inputs_out"]).unlink(missing_ok=True)
    gen = run.spawn([str(HERE / "loadgen.py"), "--plan", str(plan_path)])
    run.train()
    run.wait_for(Path(p["inputs_out"]), gen, 150)  # inputs built, gen idle

    setup_s = []
    for k in range(setups):
        proc, _dump, dt = launch(run, f"setup{k}", max_messages=0, duration=0.05,
                                 refreshes=0, spans=None, inject=None)
        if run.wait(proc, 60) != 0:
            raise RuntimeError("set-up spawn failed")
        setup_s.append(dt)

    spans = run.span_file() if traced else None
    n_total = sum(ph["lines"] for ph in p["phases"])
    sut, dump, dt = launch(run, tag, max_messages=n_total,
                           duration=run.seconds * 6 + 60, refreshes=refreshes,
                           spans=spans, inject=run.inject)
    if run.wait(gen, 170) != 0:
        raise RuntimeError("load generator failed")
    if run.wait(sut, 170) != 0:
        raise RuntimeError("listen SUT failed")
    result = json.loads(dump.read_text())
    setup_s.append(dt)
    return {
        "plan": p,
        "inputs": json.loads(Path(p["inputs_out"]).read_text()),
        "sendlog": json.loads(Path(p["sendlog_out"]).read_text()),
        "dump": result,
        "setup_s": setup_s,
        "spans": spans,
    }


def _commit_times(msgs: list, commits: list) -> list:
    """Commit time of each line, joined on (host, per-host ordinal)."""
    per_part: dict[str, tuple[list[int], list[float]]] = {}
    for part, off, tc in commits:
        offs, times = per_part.setdefault(part, ([], []))
        if not offs or off > offs[-1]:  # commits are max-wins
            offs.append(off)
            times.append(tc)
    seen: dict[str, int] = {}
    out = []
    for row in msgs:
        host = row[1]
        ordinal = seen.get(host, 0)
        seen[host] = ordinal + 1
        offs, times = per_part.get(host, ((), ()))
        k = bisect.bisect_right(offs, ordinal)
        out.append(times[k] if k < len(offs) else None)
    return out


def analyse(run, p: dict) -> dict:
    """Join sends to commits; gate correctness; per-round figures."""
    dump, sendlog = p["dump"], p["sendlog"]
    msgs = p["inputs"]["messages"]
    n = len(msgs)
    limit_ms = CONFIG["freshness_limit_p99_ms"]
    due, bounds = schedule(p["plan"], sendlog["t0"])
    send_t = [0.0] * n
    for conn, log in zip(sendlog["connections"], sendlog["logs"]):
        for i, j, t0, _t1 in log:
            for k in range(i, j):
                send_t[conn[k]] = t0
    commit_t = _commit_times(msgs, dump["commits"])
    t_end = max((c for c in commit_t if c is not None), default=max(send_t))

    def lat_ms(i: int) -> float:
        if commit_t[i] is None:  # never committed: over any limit
            return (t_end - due[i]) * 1e3 + limit_ms
        return (commit_t[i] - due[i]) * 1e3

    probes = dump["probes"]

    def speed(t0: float, t1: float) -> float:
        """Host-speed factor from the SUT's probes inside [t0, t1]."""
        return hostspeed.factor(dt for t, dt in probes if t0 <= t <= t1)

    # a fixed-rate phase is invalid when its generator fell behind the
    # schedule: the run then measured the generator, not the SUT, and
    # each invalid phase counts as one failed operation.  A phase whose
    # p99 freshness went over the limit or whose backlog kept growing
    # is slow, not wrong: it is reported as such and its figures stand
    late_limit_ms = CONFIG["gen_late_limit_p99_ms"]
    kinds: dict[str, dict] = {}
    for kind in ("nominal", "peak"):
        k = kinds[kind] = {"p50": [], "p99": [], "late_p99": [], "behind": 0,
                           "over": 0, "growing": 0, "invalid": 0, "scaled": []}
        late_all: list[float] = []
        for r in range(ROUNDS):
            lo, hi = bounds[f"{kind}.{r}"]
            lats = [lat_ms(i) for i in range(lo, hi)]
            f = speed(due[lo], max((c for c in commit_t[lo:hi] if c is not None),
                                   default=due[hi - 1]))
            k["scaled"].append([x * f for x in lats])
            p99 = pct(lats, 99)
            k["p50"].append(pct(lats, 50))
            k["p99"].append(p99)
            late = [(send_t[i] - due[i]) * 1e3 for i in range(lo, hi)]
            late_all += late
            k["late_p99"].append(pct(late, 99))
            behind = k["late_p99"][-1] > late_limit_ms
            over = p99 > limit_ms
            # the last quarter's freshness far above the middle half's:
            # the backlog kept growing after the phase's queue had
            # filled (the first quarter only fills it, so it is left out)
            q = (hi - lo) // 4
            growing = bool(q) and (
                pct(lats[-q:], 50) > 1.5 * pct(lats[q:-q], 50) + 50
            )
            k["behind"] += behind
            k["over"] += over
            k["growing"] += growing
            k["invalid"] += behind
        k["late_p99_all"] = pct(late_all, 99)
    bursts, windows, burst_lines, burst_scaled_s = [], [], 0, 0.0
    for r in range(ROUNDS):
        lo, hi = bounds[f"burst.{r}"]
        done = [commit_t[i] for i in range(lo, hi) if commit_t[i] is not None]
        start = min(send_t[lo:hi])
        end = max(done) if done else start
        windows.append((start, end))
        bursts.append((hi - lo) / (end - start) if end > start else 0.0)
        burst_lines += hi - lo
        # a saturated loop runs few probes: widen the window to its edges
        burst_scaled_s += (end - start) * speed(start - 0.5, end + 0.5)

    # ---- correctness gate
    expected = [(float(int(r[0])), r[1], r[2], r[3], r[4]) for r in msgs]
    stored = [tuple(d[:5]) for d in dump["docs"]]
    lost = set(verify.missing_rows(expected, stored))
    lost |= {i for i in range(n) if commit_t[i] is None}
    ref = verify.reference_categories(run.model, [r[4] for r in msgs])
    wrong_cat = verify.category_mismatches(dump["docs"], ref)
    ls = dump["listener"]
    rejected = (ls["shed"] + ls["tenant_shed"] + ls["accept_dropped"]
                + ls["oversize"] + ls["parse_errors"] + ls["publish_refused"])
    pipe = dump.get("pipeline") or {}
    quarantined = pipe.get("quarantined", 0)
    rows = [(*e, ref[e[4]]) for e in expected]
    # the store must hold every sent line: check against all n rows
    refresh = dict(dump["refresh"], n_docs=[n] * len(dump["refresh"]["times"]))
    bad_refresh = verify.failed_refreshes(rows, refresh)
    gate = {
        "accounted": ls["accounted"],
        "accepted_eq_sent": ls["accepted"] == n,
        "indexed_eq_sent": len(dump["docs"]) == n,
        "classified_eq_sent": pipe.get("classified") == n,
        "lag_zero": dump["broker"]["lag"] == 0,
    }
    invalid = sum(k["invalid"] for k in kinds.values())
    failed = len(lost) + wrong_cat + quarantined + bad_refresh + rejected + invalid
    failed += sum(0 if ok else 1 for ok in gate.values())
    attempted = n + len(refresh["times"]) + 2 * ROUNDS
    return {
        "n": n, "bounds": bounds, "due": due, "kinds": kinds,
        "bursts": bursts, "windows": windows,
        "throughput": burst_lines / burst_scaled_s if burst_scaled_s else 0.0,
        "attempted": attempted, "failed": min(failed, attempted),
        "detail": dict(gate, lost=len(lost), wrong_category=wrong_cat,
                       rejected=rejected, quarantined=quarantined,
                       bad_refreshes=bad_refresh, invalid_phases=invalid),
    }


def report(p: dict, a: dict) -> None:
    say(f"inputs: {a['n']} wire lines, sha256={p['inputs']['digest'][:16]}")
    for kind, k in a["kinds"].items():
        rate = p["plan"]["spec"][f"{kind}_rate"]
        say(
            f"{kind}: rate={rate}/s rounds={ROUNDS} "
            f"fresh_p50_ms={[round(x, 1) for x in k['p50']]} "
            f"fresh_p99_ms={[round(x, 1) for x in k['p99']]} "
            f"gen_late_p99_ms={[round(x, 2) for x in k['late_p99']]} "
            f"generator_behind={k['behind']}/{ROUNDS} "
            f"over_limit={k['over']}/{ROUNDS} lag_growing={k['growing']}/{ROUNDS} "
            f"{'VALID' if not k['invalid'] else 'INVALID'}"
            f"{' OVER-LIMIT' if k['over'] else ''}"
            f"{' BACKLOG-GROWING' if k['growing'] else ''}"
        )
    say(f"burst: lines={p['plan']['spec']['burst_lines']} "
        f"throughput_msg_s={[round(x) for x in a['bursts']]}")
    pr = [dt for _t, dt in p["dump"]["probes"]]
    say(f"host probe: median={statistics.median(pr) * 1e3:.3f}ms "
        f"(reference {hostspeed.REFERENCE_S * 1e3:.3f}ms, {len(pr)} probes)")
    cache = (p["dump"].get("pipeline") or {}).get("cache") or {}
    if cache:
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        say(f"template cache: hit_ratio={cache.get('hit_rate', 0):.3f} "
            f"(base: {int(lookups)} lookups)")
    say("gate: " + " ".join(f"{k}={v}" for k, v in a["detail"].items()))


def metrics(p: dict, a: dict) -> dict:
    """Freshness: median over rounds of each round's percentile; every
    time but set-up scaled to the reference host speed."""
    k = a["kinds"]
    r = p["dump"]["refresh"]
    refresh = [t * 1e3 for t in hostspeed.scaled(r["times"], r["probes"])]
    return {
        # set-up is imports and file reads, which the interpreter probe
        # does not track: it is reported unscaled
        "setup_s": statistics.median(p["setup_s"]),
        "throughput_msgs_s": a["throughput"],
        "lat_nominal_p50_ms": median_pct(k["nominal"]["scaled"], 50),
        "lat_nominal_p95_ms": median_pct(k["nominal"]["scaled"], 95),
        "lat_peak_p50_ms": median_pct(k["peak"]["scaled"], 50),
        "lat_peak_p95_ms": median_pct(k["peak"]["scaled"], 95),
        "refresh_p50_ms": pct(refresh, 50),
        "refresh_p95_ms": pct(refresh, 95),
        "rss_peak_mb": p["dump"]["rss_peak_mb"],
    }


def execute(run, trace: bool):
    """Returns (metrics or ledger, attempted, failed)."""
    import ledger

    if trace:
        p0 = run_pass(run, traced=False, setups=0, refreshes=0)
        a0 = analyse(run, p0)
        p = run_pass(run, traced=True, setups=0, refreshes=TRACED_REFRESHES)
        a = analyse(run, p)
        report(p, a)
        led, covered = ledger.listen_ledger(p, a, base_throughput=a0["throughput"])
        # a ledger that misses part of the blocking path is a failed check
        return (led, a0["attempted"] + a["attempted"] + 1,
                a0["failed"] + a["failed"] + (not covered))
    p = run_pass(run, traced=False, setups=SETUP_SPAWNS - 1,
                 refreshes=run.spec["refreshes"])
    a = analyse(run, p)
    report(p, a)
    return metrics(p, a), a["attempted"], a["failed"]

