"""Span analysis: self times and per-layer totals.

Reads the span files ``layers.Recorder.save`` writes.  A span's self
time is its duration minus the durations of its direct children; summed
over a request, self times add up to the request's outermost spans.
"""

from __future__ import annotations

import json

import numpy as np

from layers import COLUMNS, LAYER_NAMES


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    spans = {name: np.asarray(doc[name], dtype=np.float64 if name in ("t0", "t1")
                              else np.int64)
             for name in COLUMNS}
    spans["names"] = doc["names"]
    return spans


def self_times(spans: dict) -> np.ndarray:
    """Per-span self time: duration minus its direct children's."""
    dur = spans["t1"] - spans["t0"]
    child = np.zeros_like(dur)
    has_parent = spans["parent"] >= 0
    if has_parent.any():
        order = np.argsort(spans["sid"], kind="stable")
        pos = np.searchsorted(spans["sid"][order], spans["parent"][has_parent])
        np.add.at(child, order[pos], dur[has_parent])
    return dur - child


class LayerTotals:
    """Per-layer sums over any number of span sets."""

    def __init__(self) -> None:
        n = len(LAYER_NAMES)
        self.calls = np.zeros(n, dtype=np.int64)
        self.self_s = np.zeros(n)
        self.errors = np.zeros(n, dtype=np.int64)
        self.items = np.zeros(n, dtype=np.int64)
        #: total (not self) seconds and calls per target name
        self.by_name: dict[str, list[float]] = {}

    def add(self, spans: dict) -> None:
        if spans["t0"].size == 0:
            return
        own = self_times(spans)
        layer = spans["layer"]
        n = len(LAYER_NAMES)
        self.calls += np.bincount(layer, minlength=n)
        self.self_s += np.bincount(layer, weights=own, minlength=n)
        self.errors += np.bincount(layer, weights=spans["err"], minlength=n).astype(np.int64)
        self.items += np.bincount(layer, weights=spans["items"], minlength=n).astype(np.int64)
        dur = spans["t1"] - spans["t0"]
        for code, name in enumerate(spans["names"]):
            mask = spans["name"] == code
            if mask.any():
                entry = self.by_name.setdefault(name, [0.0, 0])
                entry[0] += float(dur[mask].sum())
                entry[1] += int(mask.sum())

    def layer(self, name: str) -> int:
        return LAYER_NAMES.index(name)

    def target_seconds(self, suffix: str) -> float:
        return sum(s for name, (s, _) in self.by_name.items()
                   if name.endswith(suffix))
