"""The correctness gate: every output checked against a reference.

The references are built from the generated inputs only:

- documents: the multiset of (timestamp, host, app, severity, text)
  the store must hold (timestamps floored to whole seconds when they
  crossed the wire, which carries no fractions);
- categories: a fresh, uncached ``classify_batch`` over the same texts
  with the same saved model, run after the SUT has exited;
- refreshes: ``Counter`` tallies of hosts, apps, severities and
  categories, plus the document count, the operator's term count, the
  last-minute count and the busiest 60 s bucket of the rate panel.
"""

from __future__ import annotations

import bisect
import re
from collections import Counter

import dashops

_PANEL_ROW = re.compile(r"^(.+?)\s+#+ (\d+)$")
_HEADER = re.compile(r"^=== Tivan overview: (\d+) documents ===$")
_RATE_MAX = re.compile(r" max=(\d+)$")


def reference_categories(model_dir, texts: list[str]) -> dict[str, str]:
    """text -> category of an uncached pipeline (each text once)."""
    from repro.core.serialize import load_pipeline

    pipe = load_pipeline(model_dir)
    unique = sorted(set(texts))
    out: dict[str, str] = {}
    for lo in range(0, len(unique), 4096):
        chunk = unique[lo:lo + 4096]
        for text, result in zip(chunk, pipe.classify_batch(chunk)):
            out[text] = result.category.value
    return out


def missing_rows(expected: list[tuple], stored: list[tuple]) -> list[int]:
    """Indices of expected rows the store does not hold (multiset)."""
    have = Counter(stored)
    missing = []
    for i, row in enumerate(expected):
        if have[row] > 0:
            have[row] -= 1
        else:
            missing.append(i)
    return missing


def category_mismatches(docs: list, ref: dict[str, str]) -> int:
    """Documents whose category differs from the uncached reference."""
    return sum(1 for d in docs if d[5] != ref.get(d[4]))


class RefreshReference:
    """Counter reference over a growing prefix of the expected documents.

    ``rows`` are (timestamp, host, app, severity, text, category) in
    write order; :meth:`check` verifies a refresh taken when the first
    ``n`` rows had been written.
    """

    def __init__(self, rows: list[tuple]) -> None:
        self.rows = rows
        self._n = 0
        self.hosts: Counter = Counter()
        self.apps: Counter = Counter()
        self.sev: Counter = Counter()
        self.cats: Counter = Counter()
        self.times: list[float] = []  # sorted
        self.minutes: Counter = Counter()  # docs per 60 s bucket
        self.term = 0

    def _advance(self, n: int) -> None:
        if n < self._n:
            raise ValueError("refresh prefixes must not shrink")
        for ts, host, app, sev, _text, cat in self.rows[self._n:n]:
            self.hosts[host] += 1
            self.apps[app] += 1
            self.sev[sev] += 1
            if cat is not None:
                self.cats[cat] += 1
            if self.times and ts < self.times[-1]:
                bisect.insort(self.times, ts)
            else:
                self.times.append(ts)
            self.minutes[int(ts // 60.0)] += 1
            if host.lower() == dashops.TERM or app.lower() == dashops.TERM:
                self.term += 1
        self._n = n

    def check(self, n: int, result: list) -> bool:
        from repro.core.message import Severity

        self._advance(n)
        text, term_total, range_total, t_max = result
        if not self.times or t_max != self.times[-1]:
            return False
        t0, t1 = dashops.window(t_max)
        in_range = (
            bisect.bisect_left(self.times, t1) - bisect.bisect_left(self.times, t0)
        )
        if term_total != self.term or range_total != in_range:
            return False
        sections = text.split("\n\n")
        m = _HEADER.match(sections[0])
        if m is None or int(m.group(1)) != n:
            return False
        m = _RATE_MAX.search(sections[1])
        if m is None or int(m.group(1)) != max(self.minutes.values()):
            return False
        sev_names = Counter({Severity(k).name.lower(): v for k, v in self.sev.items()})
        panels = {
            "top hosts": (self.hosts, 5),
            "top services": (self.apps, 5),
            "severity": (sev_names, None),
            "categories": (self.cats, 8),
        }
        seen = set()
        for section in sections[2:]:
            title, *rows = section.split("\n")
            if title not in panels:
                return False
            seen.add(title)
            ref, top = panels[title]
            got = []
            for row in rows:
                m = _PANEL_ROW.match(row)
                if m is None:
                    return False
                got.append((m.group(1).strip(), int(m.group(2))))
            if any(ref.get(name) != count for name, count in got):
                return False
            want = sorted(ref.values(), reverse=True)
            if top is not None:
                want = want[:top]
            if sorted((c for _n, c in got), reverse=True) != want:
                return False
        return seen >= {"top hosts", "top services", "severity"} and (
            ("categories" in seen) == bool(self.cats)
        )


def failed_refreshes(rows: list[tuple], refresh: dict) -> int:
    ref = RefreshReference(rows)
    failed, last, verdict = 0, None, True
    for n, result in zip(refresh["n_docs"], refresh["results"]):
        key = (n, *result)
        if key != last:  # an unchanged store gives an unchanged verdict
            verdict, last = ref.check(n, result), key
        failed += not verdict
    return failed
