"""Spans around calls into each layer of the package, recorded from
outside it.

Each public function is wrapped where its callers look it up: the name
bound in the calling module's namespace, or the attribute on a class for
methods.  Spans (name, start, end, parent) are kept in flat arrays in
memory; ``Tracer.save`` writes them out once the run ends.  Tracing is
installed only around the traced repetitions of a command and removed
after each, so untraced timings never run through a wrapper.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, attribute, span name).  The module is the one whose namespace
# the caller reads the name from; a dotted attribute wraps a method on a
# class.  Together these cover every call the four commands make from
# one layer into another, so a span's self time is time spent in its
# own layer.
SITES = [
    ("gnbp.cli", "main", "cli.main"),
    ("gnbp.cli", "run_chain", "inference.run_chain"),
    ("gnbp.cli", "bundled_datasets", "data_io.bundled_datasets"),
    ("gnbp.cli", "to_cluster_sizes", "data_io.to_cluster_sizes"),
    ("gnbp.cli", "to_assignments", "data_io.to_assignments"),
    ("gnbp.cli", "subsample_without_replacement", "data_io.subsample_without_replacement"),
    ("gnbp.cli", "summarize", "diversity.summarize"),
    ("gnbp.cli", "simpson_sample_estimate", "diversity.simpson_sample_estimate"),
    ("gnbp.cli", "build_log_r_table", "partitions.build_log_r_table"),
    ("gnbp.cli", "sequential_sample", "partitions.sequential_sample"),
    ("gnbp.cli", "sample_cluster_structure", "distributions.sample_cluster_structure"),
    ("gnbp.inference", "update_gamma0", "inference.update_gamma0"),
    ("gnbp.inference", "update_a_griddy", "inference.update_a"),
    ("gnbp.inference", "update_p", "inference.update_p"),
    ("gnbp.inference", "simpson_theta", "diversity.simpson_theta"),
    ("gnbp.inference", "build_stirling_table", "core_math.build_stirling_table"),
    ("gnbp.inference", "ecpf_log", "partitions.ecpf_log"),
    ("gnbp.diversity", "sample_cluster_structure", "distributions.sample_cluster_structure"),
    ("gnbp.partitions", "Assignments.cluster_sizes", "partitions.cluster_sizes"),
]

# LogStirlingTable.ensure is wrapped separately: it is called on every
# row lookup, and a span is opened only when it actually grows the table.
_STIRLING = ("gnbp.core_math", "LogStirlingTable")


def _count_result(name: str, result, counts: dict, chains: list) -> None:
    """Work counters read off a call's result at the span boundary."""
    if name == "core_math.build_stirling_table":
        counts["core_math.stirling_rows"] += result.max_n
    elif name == "distributions.sample_cluster_structure":
        counts["distributions.tnb_draws"] += result.l
    elif name == "partitions.build_log_r_table":
        counts["partitions.r_table_cells"] += sum(len(r) for r in result.rows.values())
    elif name == "inference.run_chain":
        chains.append([d.s_theta for d in result])


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.round_of = array("i")
        self.round = 0
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.chains: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.round_of.append(self.round)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            _count_result(name, result, tracer.counts, tracer.chains)
            return result

        return traced

    def _wrap_ensure(self, ensure):
        tracer = self

        def traced_ensure(table, n):
            grown = n - table.max_n
            if grown <= 0:
                return ensure(table, n)
            idx = tracer._open("core_math.LogStirlingTable.ensure")
            try:
                return ensure(table, n)
            finally:
                tracer._close(idx)
                tracer.counts["core_math.stirling_rows"] += grown

        return traced_ensure

    def install(self) -> None:
        for module_name, attr, name in SITES:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        table_cls = getattr(importlib.import_module(_STIRLING[0]), _STIRLING[1])
        self._saved.append((table_cls, "ensure", table_cls.ensure))
        table_cls.ensure = self._wrap_ensure(table_cls.ensure)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def save(self, path: Path) -> None:
        """Write every span as (name, start, end, parent index, round)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            round=np.frombuffer(self.round_of, dtype=np.int32),
        )

    def layer_totals(self) -> dict[str, float]:
        """Per-layer figures summed over every traced command: inclusive
        and self seconds per span name, call counts, simpson_theta call
        durations, and the work counters."""
        start = np.frombuffer(self.start)
        dur = np.frombuffer(self.end) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        out: dict[str, float] = dict(self.counts)
        for nid, name in enumerate(self.names):
            mask = name_id == nid
            out[f"{name}.total_s"] = float(dur[mask].sum())
            out[f"{name}.self_s"] = float(own[mask].sum())
            out[f"{name}.calls"] = int(mask.sum())
        sid = self._ids.get("diversity.simpson_theta")
        out["simpson_theta_durations"] = [] if sid is None else dur[name_id == sid].tolist()
        return out
