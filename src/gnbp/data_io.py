"""Species frequency-count data: parsing, conversions, bundled example
datasets, and subsampling.

Abundance data arrives as frequency counts {(i, m_i)}: m_i species were
each observed exactly i times.  The sample size is n = sum i * m_i and
the number of distinct species is l = sum m_i.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .distributions import ClusterSizes
from .partitions import Assignments, canonicalize_labels


@dataclass(frozen=True)
class FrequencyCounts:
    """Sorted (multiplicity, count) pairs with distinct multiplicities."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        entries = tuple(sorted((int(i), int(m)) for i, m in self.entries))
        object.__setattr__(self, "entries", entries)
        seen = set()
        for i, m in entries:
            if i < 1 or m < 1:
                raise ValueError(
                    f"multiplicities and counts must be positive, got ({i}, {m})"
                )
            if i in seen:
                raise ValueError(f"duplicate multiplicity {i}")
            seen.add(i)

    @property
    def n(self) -> int:
        return sum(i * m for i, m in self.entries)

    @property
    def l(self) -> int:
        return sum(m for _, m in self.entries)


def _is_integral_number(value) -> bool:
    """A JSON number with an integer value (3 or 3.0, not 3.7, "3" or true)."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and value.is_integer())


def parse_frequency_counts(text: str) -> FrequencyCounts:
    """Parse frequency counts from CSV lines "i,m_i" (optional header) or
    from a JSON object {"counts": [[i, m_i], ...]}."""
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty frequency-count input")
    if stripped.startswith("{"):
        data = json.loads(stripped)
        if not isinstance(data, dict) or "counts" not in data:
            raise ValueError('JSON input must be an object with a "counts" key')
        pairs = data["counts"]
        if not isinstance(pairs, list) or not pairs:
            raise ValueError('"counts" must be a nonempty list of [i, m_i] pairs')
        entries = []
        for item in pairs:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise ValueError(f"malformed counts entry: {item!r}")
            if not all(_is_integral_number(v) for v in item):
                raise ValueError(f"counts entry {item!r} must hold two integers")
            entries.append((int(item[0]), int(item[1])))
        return FrequencyCounts(tuple(entries))

    entries = []
    lines = [ln.strip() for ln in stripped.splitlines() if ln.strip()]
    for lineno, line in enumerate(lines, start=1):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'i,m_i', got {line!r}")
        try:
            i, m = int(fields[0]), int(fields[1])
        except ValueError:
            if lineno == 1:
                continue  # header row
            raise ValueError(f"line {lineno}: non-integer fields in {line!r}") from None
        entries.append((i, m))
    if not entries:
        raise ValueError("no data rows found")
    return FrequencyCounts(tuple(entries))


def format_frequency_counts(fc: FrequencyCounts) -> str:
    """CSV form with the standard header, one (i, m_i) pair per line."""
    lines = ["multiplicity,count"]
    lines.extend(f"{i},{m}" for i, m in fc.entries)
    return "\n".join(lines) + "\n"


def to_cluster_sizes(fc: FrequencyCounts) -> ClusterSizes:
    """Expand to a size vector sorted ascending: m_i copies of each i."""
    sizes: list[int] = []
    for i, m in fc.entries:
        sizes.extend([i] * m)
    return ClusterSizes(tuple(sizes))


def to_assignments(fc: FrequencyCounts) -> Assignments:
    """Expand to the canonical label sequence: blocks in ascending size
    order, each emitted as a run of its own label (for example counts
    {m_1=2, m_2=1, m_3=2} become 1,2,3,3,4,4,4,5,5,5)."""
    labels: list[int] = []
    label = 0
    for size in to_cluster_sizes(fc).sizes:
        label += 1
        labels.extend([label] * size)
    return Assignments(tuple(labels))


def subsample_without_replacement(
    z: Assignments, m: int, rng: np.random.Generator
) -> Assignments:
    """Uniform subsample of m of the n individuals, relabeled to
    canonical form."""
    if m < 1:
        raise ValueError(f"subsample size must be positive, got {m}")
    if m > z.n:
        raise ValueError(f"cannot take {m} of {z.n} individuals")
    positions = np.sort(rng.choice(z.n, size=m, replace=False))
    return Assignments(canonicalize_labels([z.labels[int(p)] for p in positions]))


def bundled_datasets() -> dict[str, FrequencyCounts]:
    """The three frequency-count datasets shipped with the package.

    est-tomato: 2586 expressed sequence tags from 1825 tomato flower
    genes.  tcr-treg-healthy-1 and tcr-treg-diabetic-1: regulatory
    T-cell receptor counts for one healthy and one diabetic mouse.
    """
    est = tuple(
        zip(
            list(range(1, 15)) + [16, 23, 27],
            [1434, 253, 71, 33, 11, 6, 2, 3, 1, 2, 2, 1, 1, 1, 2, 1, 1],
        )
    )
    healthy = tuple(zip([1, 2, 3, 4, 5], [40, 5, 5, 2, 3]))
    diabetic = tuple(zip([1, 2, 3, 5, 36, 40], [8, 1, 2, 1, 1, 1]))
    return {
        "est-tomato": FrequencyCounts(est),
        "tcr-treg-healthy-1": FrequencyCounts(healthy),
        "tcr-treg-diabetic-1": FrequencyCounts(diabetic),
    }
