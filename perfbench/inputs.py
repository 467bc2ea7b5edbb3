"""Workload inputs: pure functions of (workload, seed, size).

Everything the system under test receives is built here from the
repository's own generators, so a seed names one exact byte stream:

- ``fleet_messages`` — the standard fleet trace
  (:func:`repro.datagen.workload.standard_simulation_events` with the
  thermal incident), truncated to an exact line count;
- ``firmware_messages`` — the same fleet, arrivals and hosts, with every
  message re-rendered from a :class:`repro.datagen.FirmwareDrift`
  variant (a drift chain and a generation), the paper's §3 rollout
  where many masked templates are new;
- ``wire_payload`` — the messages as RFC 3164/5424 wire lines
  (:func:`repro.datagen.sender.wire_lines`).
"""

from __future__ import annotations

import hashlib

import numpy as np

#: the fleet trace is generated over this many simulated seconds; the
#: background rate is scaled so the trace holds the lines a run needs
TRACE_SPAN_S = 600.0


def fleet_events(seed: int, n_lines: int):
    """The first ``n_lines`` events of a standard fleet trace."""
    from repro.datagen.workload import standard_simulation_events

    # 5% head-room over the Poisson mean so truncation always has
    # enough events; the incident adds a few hundred on top
    rate = n_lines * 1.05 / TRACE_SPAN_S
    events = standard_simulation_events(
        duration_s=TRACE_SPAN_S, background_rate=rate, seed=seed,
        incident=True,
    )
    if len(events) < n_lines:
        raise RuntimeError(f"trace too short: {len(events)} < {n_lines}")
    return events[:n_lines]


def fleet_messages(seed: int, n_lines: int):
    return [e.message for e in fleet_events(seed, n_lines)]


def firmware_messages(seed: int, n_lines: int, drift_seeds: int, generations: int):
    """Fleet trace re-rendered from ``drift_seeds`` x ``generations``
    firmware variants; each message draws one variant uniformly.

    Variant (s, g) is generation g of chain s: the templates after g + 1
    cumulative :class:`FirmwareDrift` steps, step k seeded
    ``1000 + s * generations + k``, so no two steps share a seed.  Each
    chain is walked once and only its current generation is kept; the
    messages of a variant are rendered when the walk reaches it.
    """
    from repro.core.message import SyslogMessage
    from repro.datagen.firmware import FirmwareDrift
    from repro.datagen.templates import TEMPLATES, fill_slots
    from repro.datagen.vendors import VENDORS

    events = fleet_events(seed, n_lines)
    rng = np.random.default_rng([seed, 0xF1F1])
    picks = rng.integers(0, drift_seeds * generations, size=len(events))
    by_variant: dict[int, list[int]] = {}
    for i, v in enumerate(picks):
        by_variant.setdefault(int(v), []).append(i)
    out: list = [None] * len(events)
    for s in range(drift_seeds):
        current = TEMPLATES
        for g in range(generations):
            current = FirmwareDrift(seed=1000 + s * generations + g).drift(
                current, generations=1
            ).templates
            for i in by_variant.get(s * generations + g, ()):
                event = events[i]
                msg = event.message
                vendor = next(
                    (p.name for p in VENDORS
                     if msg.hostname.startswith(p.node_prefix)),
                    None,
                )
                pool = [
                    t for t in current
                    if t.category is event.label
                    and (t.vendors is None or vendor in t.vendors)
                ] or [t for t in current if t.category is event.label]
                weights = np.asarray([t.weight for t in pool])
                tpl = pool[int(rng.choice(len(pool), p=weights / weights.sum()))]
                out[i] = SyslogMessage(
                    timestamp=msg.timestamp, hostname=msg.hostname, app=tpl.app,
                    text=fill_slots(tpl, rng), severity=tpl.severity, pid=msg.pid,
                )
    return out


def workload_messages(workload: str, seed: int, n_lines: int, spec: dict):
    if workload == "firmware_rollout":
        return firmware_messages(
            seed, n_lines, spec["drift_seeds"], spec["drift_generations"]
        )
    return fleet_messages(seed, n_lines)


def wire_payload(messages) -> list[bytes]:
    from repro.datagen.sender import wire_lines

    return wire_lines(messages)


def digest(lines: list[bytes]) -> str:
    """SHA-256 over the newline-framed wire stream."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line)
        h.update(b"\n")
    return h.hexdigest()


def message_row(m) -> list:
    """The JSON form both sides of the correctness gate compare."""
    return [m.timestamp, m.hostname, m.app, int(m.severity), m.text]
