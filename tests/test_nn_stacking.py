"""Stacked-parameter helpers, task-batch padding, and artifact round-trips."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.tasks import PreferenceTask
from repro.meta.corpus import TaskCorpusBuilder, pack_content
from repro.nn import (
    load_params,
    save_params,
    stack_params,
    tile_params,
    tree_map,
    unstack_params,
)

RNG = np.random.default_rng(0)


def _params(seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {"W": rng.normal(size=(3, 2)), "b": rng.normal(size=(2,))}


class TestTreeMap:
    def test_applies_leafwise(self):
        doubled = tree_map(lambda v: 2 * v, _params(0))
        np.testing.assert_allclose(doubled["W"], 2 * _params(0)["W"])

    def test_zips_multiple_trees(self):
        a, b = _params(0), _params(1)
        summed = tree_map(np.add, a, b)
        np.testing.assert_allclose(summed["b"], a["b"] + b["b"])

    def test_rejects_mismatched_keys(self):
        with pytest.raises(ValueError, match="identical keys"):
            tree_map(np.add, {"W": np.ones(2)}, {"V": np.ones(2)})


class TestStackUnstack:
    def test_round_trip(self):
        originals = [_params(s) for s in range(4)]
        stacked = stack_params(originals)
        assert stacked["W"].shape == (4, 3, 2)
        for original, restored in zip(originals, unstack_params(stacked, 4)):
            for name in original:
                np.testing.assert_array_equal(original[name], restored[name])

    def test_unstack_shares_unstacked_keys(self):
        stacked = {"W": RNG.normal(size=(3, 3, 2)), "b": RNG.normal(size=(2,))}
        parts = unstack_params(stacked, 3, stacked_keys=["W"])
        assert all(part["b"] is stacked["b"] for part in parts)
        np.testing.assert_array_equal(parts[1]["W"], stacked["W"][1])

    def test_unstack_validates_leading_dim(self):
        with pytest.raises(ValueError, match="leading dim"):
            unstack_params({"W": np.zeros((2, 3))}, 4)

    def test_unstack_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="not present"):
            unstack_params({"W": np.zeros((2, 3))}, 2, stacked_keys=["V"])

    def test_stack_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            stack_params([])
        with pytest.raises(ValueError, match="identical keys"):
            stack_params([{"W": np.ones(2)}, {"V": np.ones(2)}])


class TestTileParams:
    def test_tiles_writable_copies(self):
        base = _params(0)
        tiled = tile_params(base, 5)
        assert tiled["W"].shape == (5, 3, 2)
        tiled["W"][0] += 1.0  # must not write through to the base weights
        np.testing.assert_array_equal(base["W"], _params(0)["W"])

    def test_keys_subset_stays_shared(self):
        base = _params(0)
        tiled = tile_params(base, 5, keys=["W"])
        assert tiled["b"] is base["b"]
        assert tiled["W"].shape == (5, 3, 2)


class TestStackedSerialization:
    def test_stacked_params_round_trip(self, tmp_path):
        """Stacked fast weights survive save/load bit-exactly."""
        stacked = stack_params([_params(s) for s in range(3)])
        stacked["shared"] = RNG.normal(size=(4,))
        path = tmp_path / "stacked.npz"
        save_params(path, stacked, config={"tasks": 3})
        loaded, header = load_params(path)
        assert header == {"tasks": 3}
        assert set(loaded) == set(stacked)
        for name in stacked:
            np.testing.assert_array_equal(loaded[name], stacked[name])
        for part in unstack_params(loaded, 3, stacked_keys=["W", "b"]):
            assert part["W"].shape == (3, 2)


def _task(seed: int, n_support: int, n_query: int) -> PreferenceTask:
    rng = np.random.default_rng(seed)
    return PreferenceTask(
        user_row=seed,
        support_items=rng.choice(10, size=n_support, replace=False),
        support_labels=(rng.random(n_support) < 0.5).astype(float),
        query_items=rng.choice(10, size=n_query, replace=False),
        query_labels=(rng.random(n_query) < 0.5).astype(float),
    )


def _corpus(tasks: list[PreferenceTask], dim: int = 4):
    content = pack_content(RNG.random((len(tasks), dim)), RNG.random((10, dim)))
    builder = TaskCorpusBuilder(content)
    builder.extend(tasks)
    return builder.build()


class TestTaskBatch:
    """``TaskCorpus.gather_batch`` pads ragged tasks to the widest one."""

    def test_pads_ragged_tasks_to_widest(self):
        batch = _corpus([_task(0, 3, 2), _task(1, 5, 4)]).gather_batch(np.arange(2))
        assert len(batch) == 2
        assert batch.support_items.shape == (2, 5)
        assert batch.query_labels.shape == (2, 4)
        np.testing.assert_array_equal(batch.support_mask[0], [1, 1, 1, 0, 0])
        np.testing.assert_array_equal(batch.support_mask[1], [1, 1, 1, 1, 1])
        np.testing.assert_array_equal(batch.query_mask[0], [1, 1, 0, 0])
        np.testing.assert_array_equal(batch.query_mask[1], [1, 1, 1, 1])

    def test_real_rows_preserved_padding_zero(self):
        tasks = [_task(0, 2, 1), _task(1, 4, 3)]
        corpus = _corpus(tasks)
        batch = corpus.gather_batch(np.arange(2))
        np.testing.assert_array_equal(batch.user_rows, [0, 1])
        np.testing.assert_array_equal(batch.support_items[0, :2], tasks[0].support_items)
        np.testing.assert_array_equal(batch.support_items[1], tasks[1].support_items)
        # Padded positions hold a valid index (the pool's first entry) under
        # a zero mask and an exactly-zero label.
        np.testing.assert_array_equal(
            batch.support_items[0, 2:], corpus.support_items[0]
        )
        np.testing.assert_array_equal(
            batch.support_labels[0],
            [*tasks[0].support_labels.astype(np.float32), 0.0, 0.0],
        )
        np.testing.assert_array_equal(
            batch.support_labels[1], tasks[1].support_labels.astype(np.float32)
        )
        np.testing.assert_array_equal(
            batch.query_labels[0], [tasks[0].query_labels[0], 0.0, 0.0]
        )

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            _corpus([_task(0, 2, 1)]).gather_batch(np.array([], dtype=np.int64))
