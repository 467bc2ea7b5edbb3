"""Open-loop TCP load generator (a process of its own, never the SUT).

Usage: ``python3 perfbench/loadgen.py --plan plan.json``

The plan names the workload, seed, phases and the files to exchange.
The generator builds the wire lines from the seed (see ``inputs``),
writes them to ``plan["inputs_out"]`` for the correctness gate, waits
for the listener's port file, then sends every line on its schedule:

- hosts are pinned to one of ``nproc`` TCP connections, so a
  host's broker offsets follow its send order and each line's freshness
  joins exactly on (partition = host, offset = per-host ordinal);
- fixed-rate phases give line ``k`` of the phase the due time
  ``start + k / rate`` on ``CLOCK_MONOTONIC``; each connection wakes at
  least every 2 ms and sends whatever is due in one chunk, never
  slowing down when the listener does;
- the saturation phase makes every line due at its start, so TCP
  backpressure alone paces the sender.

The send log (chunk boundaries with send start/end times) lands in
``plan["sendlog_out"]``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import socket
import sys
import threading
import time
import zlib
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))

import inputs  # noqa: E402

#: a connection sends at most this many lines per chunk (a burst backlog
#: goes out in chunks this large, so the kernel buffers stay full)
MAX_CHUNK = 4096
#: sender-side socket buffer: a burst queues in the kernel, not in Python
SNDBUF = 4 << 20
#: longest a connection sleeps between due-time checks
TICK_S = 0.002


def schedule(plan: dict, t0: float = 0.0):
    """Due time of every line and the ``[lo, hi)`` line range of each phase."""
    due: list[float] = []
    bounds: dict[str, tuple[int, int]] = {}
    t = t0
    for ph in plan["phases"]:
        lo, n = len(due), ph["lines"]
        if ph["rate"] is None:
            due += [t] * n
        else:
            due += [t + k / ph["rate"] for k in range(n)]
            t += n / ph["rate"]
        bounds[ph["name"]] = (lo, len(due))
        t += ph.get("gap_s", 0.0)
    return due, bounds


def _sender(sock, payloads, idx, due_abs, log, errors) -> None:
    try:
        i, n = 0, len(idx)
        while i < n:
            now = time.monotonic()
            wait = due_abs[idx[i]] - now
            if wait > 0:
                time.sleep(min(wait, TICK_S))
                continue
            j = i + 1
            while j < n and j - i < MAX_CHUNK and due_abs[idx[j]] <= now:
                j += 1
            chunk = b"".join(payloads[idx[k]] for k in range(i, j))
            t0 = time.monotonic()
            sock.sendall(chunk)
            log.append((i, j, t0, time.monotonic()))
            i = j
    except OSError as e:  # a dead listener ends the run as a failure
        errors.append(repr(e))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--plan", type=Path, required=True)
    args = ap.parse_args(argv)
    plan = json.loads(args.plan.read_text())
    n_total = sum(ph["lines"] for ph in plan["phases"])
    messages = inputs.workload_messages(
        plan["workload"], plan["seed"], n_total, plan["spec"]
    )
    lines = inputs.wire_payload(messages)
    Path(plan["inputs_out"]).write_text(json.dumps({
        "digest": inputs.digest(lines),
        "messages": [inputs.message_row(m) for m in messages],
    }))
    payloads = [line + b"\n" for line in lines]
    due, _bounds = schedule(plan)

    # host -> connection, stable across processes (crc32, not hash())
    n_conn = os.cpu_count() or 1
    conn_lines: list[list[int]] = [[] for _ in range(n_conn)]
    for i, m in enumerate(messages):
        conn_lines[zlib.crc32(m.hostname.encode()) % n_conn].append(i)

    port_file = Path(plan["port_file"])
    deadline = time.monotonic() + plan["wait_s"]
    while True:
        try:
            port = json.loads(port_file.read_text())["tcp"]
            break
        except (OSError, ValueError, KeyError):
            if time.monotonic() > deadline:
                print("loadgen: listener never came up", file=sys.stderr)
                return 1
            time.sleep(0.002)
    socks = []
    for _ in range(n_conn):
        sock = socket.create_connection(("127.0.0.1", port))
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, SNDBUF)
        socks.append(sock)
    t0 = time.monotonic() + 0.2
    due_abs = [t0 + d for d in due]
    # a full collection over the inputs stalls the senders for tens of
    # milliseconds; everything built so far lives until the end anyway
    gc.collect()
    gc.freeze()
    logs: list[list] = [[] for _ in range(n_conn)]
    errors: list[str] = []
    threads = [
        threading.Thread(
            target=_sender,
            args=(socks[c], payloads, conn_lines[c], due_abs, logs[c], errors),
        )
        for c in range(n_conn)
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    for s in socks:
        s.close()
    Path(plan["sendlog_out"]).write_text(json.dumps({
        "t0": t0, "connections": conn_lines, "logs": logs, "errors": errors,
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
