"""Per-layer ledger of a traced run (``--trace 1``).

Busy times are sums over spans (``self`` time where a layer nests
another: store-side masking under ``store.index`` is charged to
``textproc``); per-call times are medians; counts come from the stats
the program already keeps (``listener.stats``, ``broker.stats``,
``timing_report()``, ``template_cache.stats()``, ``index_stats()``).
A layer a workload does not run reports 0.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

from common import pct, say
from tracer import MASKERS

PER_LAYER = {
    "listener.parse_busy_s": "s",
    "listener.accept_self_s": "s",
    "listener.read_self_s": "s",
    "listener.loop_lag_p99_ms": "ms",
    "listener.rejected": "count",
    "broker.publish_busy_s": "s",
    "broker.poll_busy_s": "s",
    "broker.commit_busy_s": "s",
    "broker.queue_wait_p50_ms": "ms",
    "broker.queue_wait_p99_ms": "ms",
    "broker.records_per_poll_mean": "records",
    "broker.lag_max": "records",
    "classify.busy_s": "s",
    "classify.normalize_s": "s",
    "classify.fingerprint_s": "s",
    "classify.vectorize_s": "s",
    "classify.predict_s": "s",
    "classify.route_s": "s",
    "cache.hit_ratio": "ratio",
    "textproc.mask_calls_per_msg": "calls/msg",
    "textproc.mask_busy_s": "s",
    "classify.quarantined": "count",
    "store.index_self_s": "s",
    "store.set_category_busy_s": "s",
    "store.terms_agg_ms": "ms",
    "store.date_histogram_ms": "ms",
    "store.severity_histogram_ms": "ms",
    "store.term_query_ms": "ms",
    "store.time_range_ms": "ms",
    "store.unique_terms": "count",
    "store.postings": "count",
    "wal.append_busy_s": "s",
    "wal.appends": "count",
    "wal.syncs": "count",
    "wal.bytes_per_msg": "B/msg",
    "checkpoint.write_s": "s",
    "replication.bulk_index_busy_s": "s",
    "fluentd.flush_busy_s": "s",
    "path.busy_share": "ratio",
    "gen.late_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

#: the blocking-path busy shares must sum to within this of wall time
BUSY_SHARE_TOLERANCE = 0.1

#: spans along the listen path's blocking steps (a TCP read step holds
#: the accept of its lines); they never nest in one another, so their
#: durations add up to loop-thread busy time
BLOCKING = ("listener.read", "broker.poll", "store.index", "classify",
            "store.set_category", "broker.commit")


class Spans:
    def __init__(self, path) -> None:
        data = json.loads(path.read_text())
        self.by_name: dict[str, list] = defaultdict(list)
        for row in data["spans"]:
            self.by_name[data["names"][row[0]]].append(row)

    def total(self, name: str, *, own: bool = False) -> float:
        """Summed duration (``own``: self time) of every ``name`` span."""
        return sum(r[5] if own else r[2] - r[1] for r in self.by_name.get(name, ()))

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def median_ms(self, name: str) -> float:
        return pct([(r[2] - r[1]) * 1e3 for r in self.by_name.get(name, ())], 50)

    def covered(self, names, lo: float, hi: float) -> float:
        """Seconds of ``[lo, hi]`` covered by spans of ``names``."""
        return sum(
            max(0.0, min(r[2], hi) - max(r[1], lo))
            for name in names for r in self.by_name.get(name, ())
        )


def _stage(timing: dict | None, name: str) -> float:
    if not timing:
        return 0.0
    return timing["stages"].get(name, {}).get("seconds", 0.0)


def common(sp: Spans, *, pipe: dict | None, index_stats: dict,
           mask_items: int, n_msgs: int) -> dict:
    """The metrics every workload computes the same way (0: layer idle)."""
    pipe = pipe or {}
    cache = pipe.get("cache") or {}
    timing = pipe.get("timing")
    return {
        "listener.parse_busy_s": sp.total("listener.parse", own=True),
        "listener.accept_self_s": sp.total("listener.accept", own=True),
        "listener.read_self_s": sp.total("listener.read", own=True),
        "listener.loop_lag_p99_ms": 0.0,
        "listener.rejected": 0,
        "broker.publish_busy_s": sp.total("broker.publish", own=True),
        "broker.poll_busy_s": sp.total("broker.poll", own=True),
        "broker.commit_busy_s": sp.total("broker.commit", own=True),
        "broker.queue_wait_p50_ms": 0.0,
        "broker.queue_wait_p99_ms": 0.0,
        "broker.records_per_poll_mean": 0.0,
        "broker.lag_max": 0,
        "classify.busy_s": sp.total("classify"),
        "classify.normalize_s": _stage(timing, "normalize"),
        "classify.fingerprint_s": _stage(timing, "fingerprint"),
        "classify.vectorize_s": _stage(timing, "vectorize"),
        "classify.predict_s": _stage(timing, "predict"),
        "classify.route_s": _stage(timing, "route"),
        "cache.hit_ratio": cache.get("hit_rate", 0.0),
        "textproc.mask_calls_per_msg": mask_items / max(n_msgs, 1),
        "textproc.mask_busy_s": sum(sp.total(m, own=True) for m in MASKERS),
        "classify.quarantined": pipe.get("quarantined", 0),
        "store.index_self_s": sp.total("store.index", own=True),
        "store.set_category_busy_s": (sp.total("store.set_category")
                                      + sp.total("replication.set_category")),
        "store.terms_agg_ms": sp.median_ms("store.terms_aggregation"),
        "store.date_histogram_ms": sp.median_ms("store.date_histogram"),
        "store.severity_histogram_ms": sp.median_ms("store.severity_histogram"),
        "store.term_query_ms": sp.median_ms("store.term_query"),
        "store.time_range_ms": sp.median_ms("store.time_range"),
        "store.unique_terms": index_stats["unique_terms"],
        "store.postings": index_stats["postings"],
        "wal.append_busy_s": sp.total("wal.append"),
        "wal.appends": sp.count("wal.append"),
        "wal.syncs": sp.count("wal.sync"),
        "wal.bytes_per_msg": 0.0,
        "checkpoint.write_s": sp.total("checkpoint.write"),
        "replication.bulk_index_busy_s": sp.total("replication.bulk_index"),
        "fluentd.flush_busy_s": sp.total("fluentd.flush"),
        "path.busy_share": 0.0,
        "gen.late_p99_ms": 0.0,
    }


def listen_ledger(p: dict, a: dict, *, base_throughput: float) -> tuple[dict, bool]:
    """Per-layer metrics of a traced ``listen`` pass, and whether the
    blocking-path busy shares cover the bursts' wall time.

    Queue waits, loop lag and broker lag are taken inside the peak
    phases; busy shares inside the bursts (the saturated loop).
    """
    dump, tr = p["dump"], p["dump"]["trace"]
    sp = Spans(p["spans"])
    out = common(sp, pipe=dump.get("pipeline"), index_stats=dump["index_stats"],
                 mask_items=tr["mask_items"], n_msgs=a["n"])
    peaks = [a["bounds"][name] for name in a["bounds"] if name.startswith("peak.")]
    windows = [(a["due"][lo], a["due"][hi - 1]) for lo, hi in peaks]

    def in_peak(series):
        return [v for t, v in series if any(w0 <= t <= w1 for w0, w1 in windows)]

    polls = tr["poll_sizes"]
    out.update({
        "listener.loop_lag_p99_ms": pct(in_peak(tr["loop_lag"]), 99) * 1e3,
        "listener.rejected": a["detail"]["rejected"],
        "broker.queue_wait_p50_ms": pct(in_peak(tr["queue_wait"]), 50) * 1e3,
        "broker.queue_wait_p99_ms": pct(in_peak(tr["queue_wait"]), 99) * 1e3,
        "broker.records_per_poll_mean": sum(polls) / max(len(polls), 1),
        "broker.lag_max": max(in_peak(tr["broker_lag"]), default=0),
        "gen.late_p99_ms": max(k["late_p99_all"] for k in a["kinds"].values()),
        "trace.overhead_ratio": a["throughput"] / base_throughput,
    })
    wall = sum(s1 - s0 for s0, s1 in a["windows"])
    shares = {
        name: sum(sp.covered((name,), s0, s1) for s0, s1 in a["windows"]) / wall
        for name in BLOCKING
    }
    share = sum(shares.values())
    out["path.busy_share"] = share
    within = abs(share - 1.0) <= BUSY_SHARE_TOLERANCE
    say("burst busy shares: "
        + " ".join(f"{k}={v:.3f}" for k, v in shares.items())
        + f" sum={share:.3f} ({'within' if within else 'NOT within'}"
        f" {BUSY_SHARE_TOLERANCE:.0%} of wall time)")
    return out, within


def dashboard_ledger(d: dict, *, base_throughput: float) -> dict:
    from wl_dashboard import throughput

    dump = d["dump"]
    blocks = dump["blocks"]
    sp = Spans(d["spans"])
    out = common(sp, pipe=None, index_stats=blocks[-1]["index_stats"],
                 mask_items=dump["trace"]["mask_items"],
                 n_msgs=sum(b["written"] for b in blocks))
    traced = statistics.median(throughput(b, scale=True) for b in blocks)
    out["trace.overhead_ratio"] = traced / base_throughput
    return out


def durable_ledger(p: dict, *, base_throughput: float) -> dict:
    """Per-layer metrics of the traced peak-rate durable job."""
    job = p["jobs"]["peak"][0]
    sp = Spans(p["spans"])
    out = common(sp, pipe=job.get("pipeline"), index_stats=job["index_stats"],
                 mask_items=job["trace"]["mask_items"], n_msgs=job["produced"])
    out["wal.bytes_per_msg"] = job["wal_bytes"] / max(job["produced"], 1)
    out["trace.overhead_ratio"] = job["produced"] / job["run_s"] / base_throughput
    return out
