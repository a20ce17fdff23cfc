"""Histogram computation for visualizations.

AWARE treats histograms as the canonical visualization (Sec. 2.3).  Two
properties matter for correctness of the derived hypothesis tests:

* filtered and unfiltered histograms of the same attribute must share one
  category/bin universe (aligned chi-square cells), and
* numeric attributes are binned with edges computed once on the *full*
  dataset, so a filter cannot shift the binning.

Aggregation is pushed down onto the column store.  Both histogram kinds
share one counting kernel over the column's code-bitmap index
(:meth:`~repro.exploration.dataset.Column.code_bitmaps`; a code is a
category or a bin): the predicate's memoized mask is packed into 64-bit
words, ANDed with each code's bitmap and popcounted, so the filtered rows
are never gathered.  A column with more than 64 codes has no index and
counts the gathered rows with ``np.bincount`` / ``np.histogram``, the
reference the index is tested against.  Results are memoized on the
dataset's histogram cache — a session re-showing a panel, or rule 2
re-deriving the unfiltered reference distribution, pays nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InsufficientDataError, InvalidParameterError
from repro.exploration.dataset import Column, ColumnType, Dataset, pack_mask
from repro.exploration.engine import cached_histogram
from repro.exploration.predicate import Predicate, TRUE

__all__ = ["Histogram", "categorical_histogram", "numeric_histogram", "histogram_for"]


@dataclass(frozen=True)
class Histogram:
    """Counts of an attribute over a (possibly filtered) population.

    ``labels`` are category values for categorical attributes or
    human-readable bin labels for numeric ones; ``counts`` aligns with
    ``labels``; ``support`` is the number of rows that passed the filter
    (== ``counts.sum()``).
    """

    attribute: str
    labels: tuple
    counts: tuple
    filter_description: str = "*"

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.counts):
            raise InvalidParameterError("labels and counts must align")

    @property
    def support(self) -> int:
        """Number of rows contributing to this histogram."""
        return int(sum(self.counts))

    def proportions(self) -> np.ndarray:
        """Counts normalized to a probability vector."""
        total = self.support
        if total == 0:
            raise InsufficientDataError(
                f"histogram of {self.attribute!r} under {self.filter_description!r} "
                "is empty"
            )
        return np.asarray(self.counts, dtype=float) / total

    def as_dict(self) -> dict:
        """Label -> count mapping (insertion-ordered)."""
        return dict(zip(self.labels, self.counts))

    def render(self, width: int = 40) -> str:
        """ASCII bar rendering, used by the example scripts."""
        total = max(self.support, 1)
        peak = max(max(self.counts), 1)
        lines = [f"{self.attribute}  |  where {self.filter_description}  (n={total})"]
        for label, count in zip(self.labels, self.counts):
            bar = "#" * int(round(width * count / peak))
            lines.append(f"  {str(label):>12s} | {bar} {count}")
        return "\n".join(lines)


def _cell_counts(
    dataset: Dataset, predicate: Predicate, col: Column, edges: np.ndarray | None = None
) -> np.ndarray:
    """Rows per code of *col* (category, or bin under *edges*) *predicate* keeps."""
    mask = None if predicate.is_trivial() else predicate.mask(dataset)
    bitmaps = col.code_bitmaps(edges)
    if bitmaps is None:
        return gathered_cell_counts(col, mask, edges)
    if mask is not None:
        bitmaps = bitmaps & pack_mask(mask)
    return np.bitwise_count(bitmaps).sum(axis=1)


def gathered_cell_counts(
    col: Column, mask: np.ndarray | None, edges: np.ndarray | None = None
) -> np.ndarray:
    """Rows per code that *mask* keeps (all rows for ``None``), gathered.

    The path for columns with more than 64 codes, and the reference the
    code-bitmap index is tested against.
    """
    if edges is None:
        codes = col.codes if mask is None else col.codes[mask]
        return np.bincount(codes, minlength=len(col.categories))
    values = col.values if mask is None else col.values[mask]
    counts, _ = np.histogram(values, bins=edges)
    return counts


def categorical_histogram(
    dataset: Dataset,
    attribute: str,
    predicate: Predicate = TRUE,
) -> Histogram:
    """Histogram of a categorical attribute under *predicate*.

    The label universe is the dataset's full category set, so empty
    categories appear with count 0.
    """
    col = dataset.column(attribute)
    if col.ctype is not ColumnType.CATEGORICAL:
        raise InvalidParameterError(
            f"{attribute!r} is numeric; use numeric_histogram with bin edges"
        )

    def build() -> Histogram:
        counts = _cell_counts(dataset, predicate, col)
        return Histogram(
            attribute=attribute,
            labels=tuple(col.categories),
            counts=tuple(int(c) for c in counts),
            filter_description=predicate.describe(),
        )

    return cached_histogram(dataset, ("cat", attribute, predicate), build)


def numeric_histogram(
    dataset: Dataset,
    attribute: str,
    bin_edges: np.ndarray,
    predicate: Predicate = TRUE,
) -> Histogram:
    """Histogram of a numeric attribute using pre-computed *bin_edges*.

    Callers obtain edges from ``Dataset.numeric_bin_edges`` on the full
    dataset, then reuse them for every filtered view of the attribute.
    """
    col = dataset.column(attribute)
    if col.ctype is not ColumnType.NUMERIC:
        raise InvalidParameterError(f"{attribute!r} is categorical; no bin edges apply")
    edges = np.asarray(bin_edges, dtype=float)
    if edges.ndim != 1 or edges.size < 3:
        raise InvalidParameterError("need at least 2 bins (3 edges)")
    if np.any(edges[:-1] > edges[1:]):
        raise InvalidParameterError("bin edges must increase monotonically")

    def build() -> Histogram:
        counts = _cell_counts(dataset, predicate, col, edges)
        labels = tuple(
            f"[{edges[i]:g}, {edges[i + 1]:g})" for i in range(edges.size - 1)
        )
        return Histogram(
            attribute=attribute,
            labels=labels,
            counts=tuple(int(c) for c in counts),
            filter_description=predicate.describe(),
        )

    return cached_histogram(
        dataset, ("num", attribute, predicate, edges.tobytes()), build
    )


def histogram_for(
    dataset: Dataset,
    attribute: str,
    predicate: Predicate = TRUE,
    bin_edges: np.ndarray | None = None,
    bins: int = 10,
) -> Histogram:
    """Dispatch to the right histogram kind for *attribute*.

    Numeric attributes use *bin_edges* when provided, otherwise edges
    computed on *dataset* (which should then be the full dataset).
    """
    if dataset.is_categorical(attribute):
        return categorical_histogram(dataset, attribute, predicate)
    if bin_edges is None:
        bin_edges = dataset.numeric_bin_edges(attribute, bins=bins)
    return numeric_histogram(dataset, attribute, bin_edges, predicate)
