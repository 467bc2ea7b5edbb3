"""The operator's dashboard refresh, and the ``dashboard_retention`` loop.

One refresh is what an operator's Grafana page does against the store:
``render_overview(store)`` plus one ``term_query`` and one last-minute
``time_range``.  Its result (rendered text, term total, range total,
newest timestamp) is checked by the harness against a ``Counter``
reference.

This module runs inside the SUT process (see ``launcher``), so it only
touches the store through the public API of ``repro.stream.opensearch``,
``repro.replication.store`` and ``repro.monitor.dashboard``.
"""

from __future__ import annotations

import time

import hostspeed

_now = time.monotonic

#: the host the operator drills into on every refresh
TERM = "cn003"
#: the last-minute window of a refresh
WINDOW_S = 60.0


def window(t_max: float) -> tuple[float, float]:
    """The ``[t0, t1)`` last-minute range ending at the newest document."""
    return t_max - WINDOW_S, t_max + 1.0


def refresh(store, t_max: float) -> tuple[float, list]:
    """One timed operator refresh; returns (seconds, result)."""
    from repro.monitor.dashboard import render_overview

    t0, t1 = window(t_max)
    start = _now()
    text = render_overview(store)
    term_total = store.term_query(TERM).total
    if hasattr(store, "time_range"):
        range_total = store.time_range(t0, t1).total
    else:
        # the replicated store has no time_range: count the same
        # documents through its ranged histogram
        range_total = sum(
            b.count
            for b in store.date_histogram(interval_s=WINDOW_S, t0=t0, t1=t1)
        )
    return _now() - start, [text, term_total, range_total, t_max]


def repeated_refreshes(store, n: int) -> dict:
    """``n`` refreshes of an unchanging store (post-ingest operator)."""
    if n == 0:
        return {"times": [], "results": [], "n_docs": [], "probes": []}
    t_max = max(d.message.timestamp for d in store.iter_documents())
    times, results, probes = [], [], []
    for _ in range(n):
        probes.append(hostspeed.probe())
        dt, result = refresh(store, t_max)
        times.append(dt)
        results.append(result)
    return {"times": times, "results": results, "n_docs": [len(store)] * n,
            "probes": probes}


def run_block(plan: dict, messages: list, categories: list) -> dict:
    """One block of the ``dashboard_retention`` workload on a fresh store.

    1. set-up: index the retention set;
    2. two fixed-rate write phases (nominal, peak): documents arrive at
       the phase rate and a forwarder flush every ``flush_s`` writes them
       as one batch (``bulk_index`` + ``set_category``), while the
       operator refreshes back to back whenever no flush is due (a
       single closed-loop operator); a flush that falls due during a
       refresh waits behind it, as it would behind a real operator;
    3. a closed loop of ``cycles`` x (write ``batch`` documents, refresh).
    """
    from repro.stream.opensearch import LogStore

    docs_ts = plan["ts"]

    def write(store, lo: int, hi: int) -> None:
        batch = [m for m in messages[lo:hi] if m is not None]
        k = len(store)
        store.bulk_index(batch)
        for i in range(lo, hi):
            if messages[i] is not None:
                store.set_category(k, categories[i])
                k += 1

    n_ret = plan["retention"]
    setup_probes = hostspeed.probes(3)
    start = _now()
    store = LogStore()
    write(store, 0, n_ret)
    setup_s = _now() - start
    setup_probes += hostspeed.probes(3)

    written = n_ret
    t_max = max(docs_ts[:n_ret])
    refresh(store, t_max)  # the operator opens the dashboard (untimed)
    refreshes = {"times": [], "results": [], "n_docs": [], "probes": []}
    latency: dict[str, list[float]] = {}
    phase_probes: dict[str, list[float]] = {}

    def do_refresh() -> None:
        refreshes["probes"].append(hostspeed.probe())
        dt, result = refresh(store, t_max)
        refreshes["times"].append(dt)
        refreshes["results"].append(result)
        refreshes["n_docs"].append(written)

    flush_s = plan["flush_s"]
    for phase in plan["rate_phases"]:
        rate, n = phase["rate"], phase["docs"]
        lats = latency[phase["name"]] = []
        pp = phase_probes[phase["name"]] = []
        end = written + n
        start = _now() + 0.01
        k = 0  # flush k is due at start + k * flush_s
        while written < end:
            now = _now()
            due = start + k * flush_s
            if now >= due:
                # the forwarder's flush k: documents that arrived at the
                # phase rate up to its due time, written as one batch
                hi = min(end, end - n + int(k * flush_s * rate))
                if hi > written:
                    pp.append(hostspeed.probe())
                    write(store, written, hi)
                    lats.extend([_now() - due] * (hi - written))
                    t_max = max(t_max, max(docs_ts[written:hi]))
                    written = hi
                k += 1
            else:
                do_refresh()
                pp.append(refreshes["probes"][-1])

    writes: dict[str, list] = {"docs": [], "times": [], "probes": []}
    for _ in range(plan["cycles"]):
        hi = written + plan["batch"]
        writes["probes"].append(hostspeed.probe())
        start = _now()
        write(store, written, hi)
        writes["times"].append(_now() - start)
        writes["docs"].append(hi - written)
        t_max = max(t_max, max(docs_ts[written:hi]))
        written = hi
        do_refresh()
    return {
        "setup_s": setup_s,
        "setup_probes": setup_probes,
        "latency": latency,
        "phase_probes": phase_probes,
        "refresh": refreshes,
        "writes": writes,
        "written": written,
        "index_stats": store.index_stats(),
    }


def run_dashboard(plan: dict, inject: str | None) -> dict:
    """``blocks`` identical blocks, each on a fresh store."""
    from repro.core.message import Severity, SyslogMessage
    from repro.core.taxonomy import Category

    docs = plan["docs"]  # [ts, host, app, severity, text, category]
    messages = [
        SyslogMessage(timestamp=d[0], hostname=d[1], app=d[2],
                      text=d[4], severity=Severity(d[3]))
        for d in docs
    ]
    categories = [Category(d[5]) for d in docs]
    if inject == "wrong_category":
        i = plan["retention"] + 1
        categories[i] = next(c for c in Category if c is not categories[i])
    elif inject == "drop_line":
        # a lost write: one document never reaches the store
        messages[plan["retention"] + 1] = None
    plan = dict(plan, ts=[d[0] for d in docs])
    blocks = []
    for _ in range(plan["blocks"]):
        blocks.append(run_block(plan, messages, categories))
    return {"blocks": blocks}
