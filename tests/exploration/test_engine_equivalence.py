"""The cached, dictionary-encoded engine is observationally identical to a
naive per-row reference evaluator.

Random datasets × random predicate trees must produce exactly equal masks,
histograms and chi-square p-values whether evaluated through the columnar
engine (codes, memoized masks, popcounts over each column's code-bitmap
index, or the gather path of a column past 64 codes) or through a
pure-Python row-by-row reference that never touches codes or caches.
Tables run to 200 rows, so masks cross 64-bit word boundaries, and hold
NaN and exact-bin-edge values.  Plus: cache-invalidation semantics —
views, views of views, and permuted datasets each carry a fresh generation
token and their own caches — and concurrent index builds.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InsufficientDataError
from repro.exploration.dataset import Dataset
from repro.exploration.engine import ensure_thread_safe_caches
from repro.exploration.histogram import (
    categorical_histogram,
    gathered_cell_counts,
    numeric_histogram,
)
from repro.exploration.predicate import TRUE, And, Eq, In, Not, Or, Range
from repro.stats.tests import chi_square_gof

COLORS = ("red", "blue", "green", "yellow")
#: More categories than a code-bitmap index takes: histograms of ``tag``
#: count the gathered rows.
TAGS = tuple(f"t{i:02d}" for i in range(70))
UNIFORM_EDGES = np.linspace(-50.0, 51.0, 11)


@st.composite
def raw_tables(draw):
    """Raw column lists; the dataset is built inside each test."""
    n = draw(st.integers(min_value=1, max_value=200))
    colors = draw(st.lists(st.sampled_from(COLORS), min_size=n, max_size=n))
    tags = draw(st.lists(st.sampled_from(TAGS), min_size=n, max_size=n))
    value = st.one_of(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.integers(min_value=-60, max_value=60).map(float),  # edges of drawn bins
        st.sampled_from([float(e) for e in UNIFORM_EDGES]),
        st.just(float("nan")),
    )
    values = draw(st.lists(value, min_size=n, max_size=n))
    return {"color": colors, "tag": tags, "value": values}


@st.composite
def bin_edges(draw):
    """Uniform edges, or non-uniform integer edges with 2 to 70 bins."""
    if draw(st.booleans()):
        return UNIFORM_EDGES
    points = draw(
        st.lists(st.integers(min_value=-60, max_value=60), min_size=3, max_size=71,
                 unique=True)
    )
    return np.asarray(sorted(points), dtype=float)


@st.composite
def predicates(draw, depth=2):
    if depth == 0:
        choice = draw(st.integers(0, 2))
        column, universe = draw(st.sampled_from([("color", COLORS), ("tag", TAGS)]))
        if choice == 0:
            return Eq(column, draw(st.sampled_from(universe)))
        if choice == 1:
            subset = draw(
                st.lists(st.sampled_from(universe), min_size=1, max_size=3, unique=True)
            )
            return In(column, subset)
        lo = draw(st.floats(min_value=-50, max_value=49, allow_nan=False))
        hi = draw(st.floats(min_value=lo + 0.001, max_value=51, allow_nan=False))
        return Range("value", lo, hi)
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(predicates(depth=0))
    if kind == 1:
        return Not(draw(predicates(depth=depth - 1)))
    ops = draw(st.lists(predicates(depth=depth - 1), min_size=1, max_size=3))
    return And(tuple(ops)) if kind == 2 else Or(tuple(ops))


def make_dataset(table):
    return Dataset(
        table,
        categorical=["color", "tag"],
        category_universe={"color": COLORS, "tag": TAGS},
    )


def naive_matches(pred, row) -> bool:
    """Reference semantics: per-row Python evaluation, no codes, no caches."""
    if pred.is_trivial():
        return True
    if isinstance(pred, Eq):
        return row[pred.column] == pred.value
    if isinstance(pred, In):
        return row[pred.column] in pred.values
    if isinstance(pred, Range):
        return pred.lo <= row[pred.column] < pred.hi
    if isinstance(pred, Not):
        return not naive_matches(pred.operand, row)
    if isinstance(pred, And):
        return all(naive_matches(op, row) for op in pred.operands)
    if isinstance(pred, Or):
        return any(naive_matches(op, row) for op in pred.operands)
    raise AssertionError(f"unhandled predicate {pred!r}")


def naive_mask(pred, table) -> np.ndarray:
    rows = [dict(zip(table, row)) for row in zip(*table.values())]
    return np.array([naive_matches(pred, row) for row in rows], dtype=bool)


class TestMaskEquivalence:
    @given(table=raw_tables(), p=predicates())
    @settings(max_examples=150, deadline=None)
    def test_engine_mask_equals_naive(self, table, p):
        ds = make_dataset(table)
        np.testing.assert_array_equal(p.mask(ds), naive_mask(p, table))

    @given(table=raw_tables(), p=predicates())
    @settings(max_examples=100, deadline=None)
    def test_mask_on_view_equals_naive_on_selected_rows(self, table, p):
        ds = make_dataset(table)
        keep = naive_mask(Range("value", -50, 0.001), table)
        view = ds.select(keep)
        sub_table = {
            name: [v for v, k in zip(column, keep) if k]
            for name, column in table.items()
        }
        np.testing.assert_array_equal(p.mask(view), naive_mask(p, sub_table))

    @given(table=raw_tables(), p=predicates())
    @settings(max_examples=100, deadline=None)
    def test_cached_second_evaluation_identical(self, table, p):
        ds = make_dataset(table)
        first = p.mask(ds)
        second = p.mask(ds)
        np.testing.assert_array_equal(first, second)
        assert second is first  # memoized, not recomputed
        assert not second.flags.writeable  # shared masks are read-only


class TestHistogramEquivalence:
    @given(table=raw_tables(), p=predicates())
    @settings(max_examples=150, deadline=None)
    def test_categorical_histogram_equals_naive_counts(self, table, p):
        ds = make_dataset(table)
        mask = naive_mask(p, table)
        for column, universe in (("color", COLORS), ("tag", TAGS)):
            hist = categorical_histogram(ds, column, p)
            expected = {c: 0 for c in universe}
            for label, keep in zip(table[column], mask):
                if keep:
                    expected[label] += 1
            assert hist.labels == universe
            assert hist.as_dict() == expected

    @given(table=raw_tables(), p=predicates(), edges=bin_edges())
    @settings(max_examples=100, deadline=None)
    def test_numeric_histogram_equals_naive(self, table, p, edges):
        ds = make_dataset(table)
        hist = numeric_histogram(ds, "value", edges, p)
        mask = naive_mask(p, table)
        selected = [v for v, keep in zip(table["value"], mask) if keep]
        expected, _ = np.histogram(np.asarray(selected, dtype=float), bins=edges)
        assert hist.counts == tuple(int(c) for c in expected)
        gathered = gathered_cell_counts(ds.column("value"), p.mask(ds), edges)
        assert hist.counts == tuple(int(c) for c in gathered)

    @given(table=raw_tables(), p=predicates())
    @settings(max_examples=100, deadline=None)
    def test_rule2_p_value_equals_naive_path(self, table, p):
        """The engine's counts feed chi-square identically to naive counts."""
        ds = make_dataset(table)
        filtered = categorical_histogram(ds, "color", p)
        overall = categorical_histogram(ds, "color", TRUE)
        mask = naive_mask(p, table)
        naive_counts = {c: 0 for c in COLORS}
        for color, keep in zip(table["color"], mask):
            if keep:
                naive_counts[color] += 1
        naive_overall = {c: 0 for c in COLORS}
        for color in table["color"]:
            naive_overall[color] += 1
        total = sum(naive_overall.values())
        naive_probs = [naive_overall[c] / total for c in COLORS]
        try:
            expected = chi_square_gof(
                [naive_counts[c] for c in COLORS], naive_probs
            )
        except InsufficientDataError:
            with pytest.raises(InsufficientDataError):
                chi_square_gof(filtered.counts, overall.proportions())
            return
        result = chi_square_gof(filtered.counts, overall.proportions())
        assert result.p_value == expected.p_value
        assert result.statistic == expected.statistic


class TestViewSemantics:
    def test_select_is_zero_copy(self, tiny_dataset):
        mask = np.zeros(12, dtype=bool)
        mask[2:7] = True
        view = tiny_dataset.select(mask)
        assert view.is_view
        assert not tiny_dataset.is_view
        # Shares the parent's physical stores, no column copied eagerly.
        assert view._stores is tiny_dataset._stores

    def test_view_of_view_composes_indices(self, tiny_dataset):
        first = np.zeros(12, dtype=bool)
        first[2:10] = True
        view = tiny_dataset.select(first)
        second = np.zeros(view.n_rows, dtype=bool)
        second[::2] = True
        nested = view.select(second)
        np.testing.assert_array_equal(
            nested.values("size"), tiny_dataset.values("size")[2:10][::2]
        )
        np.testing.assert_array_equal(
            nested.values("color"), tiny_dataset.values("color")[2:10][::2]
        )

    def test_select_index_preserves_given_order(self, tiny_dataset):
        idx = np.array([5, 1, 7])
        view = tiny_dataset.select_index(idx)
        np.testing.assert_array_equal(
            view.values("size"), tiny_dataset.values("size")[idx]
        )

    def test_sample_fraction_preserves_row_order(self, census):
        sample = census.sample_fraction(0.3, seed=7)
        assert sample.is_view
        assert np.all(np.diff(sample._row_index) > 0)  # strictly increasing

    def test_sample_fraction_matches_historical_mask_path(self, census):
        """Index path selects exactly the rows the mask path used to."""
        from repro.rng import as_generator

        sample = census.sample_fraction(0.25, seed=11)
        rng = as_generator(11)
        k = max(1, int(round(census.n_rows * 0.25)))
        idx = rng.choice(census.n_rows, size=k, replace=False)
        mask = np.zeros(census.n_rows, dtype=bool)
        mask[idx] = True
        np.testing.assert_array_equal(
            sample.values("age"), census.values("age")[mask]
        )
        np.testing.assert_array_equal(
            sample.values("education"), census.values("education")[mask]
        )

    def test_materialize_detaches_view(self, tiny_dataset):
        view = tiny_dataset.select(np.arange(12) % 2 == 0)
        solid = view.materialize()
        assert not solid.is_view
        np.testing.assert_array_equal(solid.values("size"), view.values("size"))
        assert solid.categories("color") == view.categories("color")


class TestCacheInvalidation:
    def test_views_and_permutations_get_fresh_generations(self, tiny_dataset):
        mask = np.ones(12, dtype=bool)
        view = tiny_dataset.select(mask)
        nested = view.select(np.ones(view.n_rows, dtype=bool))
        permuted = tiny_dataset.permute_columns(seed=0)
        tokens = {
            tiny_dataset.generation,
            view.generation,
            nested.generation,
            permuted.generation,
        }
        assert len(tokens) == 4  # all distinct: no stale cache can ever hit

    def test_view_masks_do_not_leak_from_parent(self, tiny_dataset):
        p = Eq("color", "red")
        parent_mask = p.mask(tiny_dataset)
        view = tiny_dataset.select(np.arange(12) < 6)
        view_mask = p.mask(view)
        assert view_mask.shape == (6,)
        np.testing.assert_array_equal(view_mask, parent_mask[:6])
        assert view_mask is not parent_mask

    def test_permuted_dataset_recomputes_masks(self, tiny_dataset):
        p = Eq("color", "red")
        before = p.mask(tiny_dataset)
        permuted = tiny_dataset.permute_columns(seed=3)
        after = p.mask(permuted)
        assert int(before.sum()) == int(after.sum())  # marginals preserved
        assert after is not before

    def test_histograms_are_memoized_per_dataset(self, tiny_dataset):
        p = Eq("color", "blue")
        first = categorical_histogram(tiny_dataset, "color", p)
        second = categorical_histogram(tiny_dataset, "color", p)
        assert second is first
        view = tiny_dataset.select(np.arange(12) < 4)
        third = categorical_histogram(view, "color", p)
        assert third is not first

    def test_codes_are_immutable_engine_inputs(self, tiny_dataset):
        codes = tiny_dataset.column("color").codes
        assert codes.dtype == np.int32
        recoded = tiny_dataset.column("color").codes
        assert recoded is codes  # materialized once, shared thereafter

    def test_concurrent_index_builds_agree(self):
        """Eight threads racing to index one shared dataset's fresh columns."""
        rng = np.random.default_rng(5)
        n = 10_000
        ds = Dataset(
            {"color": rng.choice(COLORS, n), "value": rng.normal(0.0, 30.0, n)},
            categorical=["color"],
            category_universe={"color": COLORS},
        )
        ensure_thread_safe_caches(ds)
        filters = [Range("value", -40.0 + 4 * k, 45.0 - 4 * k) for k in range(8)]
        start = threading.Barrier(8)
        seen = [None] * 8

        def show(k: int) -> None:
            start.wait()
            counts = {}
            for p in filters[k:] + filters[:k]:
                counts[p] = (
                    categorical_histogram(ds, "color", p).counts,
                    numeric_histogram(ds, "value", UNIFORM_EDGES, p).counts,
                )
            seen[k] = counts

        threads = [threading.Thread(target=show, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = {
            p: (
                tuple(int(c) for c in gathered_cell_counts(ds.column("color"), p.mask(ds))),
                tuple(
                    int(c)
                    for c in gathered_cell_counts(ds.column("value"), p.mask(ds), UNIFORM_EDGES)
                ),
            )
            for p in filters
        }
        assert seen == [expected] * 8
        for column, edges in (("color", None), ("value", UNIFORM_EDGES)):
            assert not ds.column(column).code_bitmaps(edges).flags.writeable
