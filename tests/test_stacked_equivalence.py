"""Stacked-vs-scalar equivalence: the batched paths ARE the per-task paths.

Property tests (hypothesis-driven shapes and seeds) asserting that every
stacked computation — layers, losses, :class:`PreferenceModel`, the
batched MAML inner loop, ``meta_step_corpus`` and ``adapt_corpus``, and the
stacked candidate-scoring backend — produces the same outputs, gradients
and optimizer states (to fp tolerance) as running the scalar per-task
reference one task at a time (for MAML, the dense oracle of
``tests/maml_oracle.py`` over a float64 corpus).  These are the acceptance tests of the
stacked-parameter redesign: any divergence means the vectorization changed
the math, not just the speed.
"""

from __future__ import annotations

import maml_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.tasks import PreferenceTask
from repro.meta.corpus import TaskCorpusBuilder, pack_content
from repro.meta.maml import (
    MAML,
    MAMLConfig,
    adapt_task_states,
    batched_candidate_scores,
)
from repro.meta.model import PreferenceModel, PreferenceModelConfig
from repro.nn import (
    Adam,
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Relu,
    Sigmoid,
    Softmax,
    Tanh,
    binary_cross_entropy,
    binary_cross_entropy_tasks,
    mlp,
    stack_params,
)
from repro.nn.stacking import pad_axis

RTOL = 1e-9
ATOL = 1e-11

#: (T, batch, features) shape strategy shared by the layer properties.
shapes = st.tuples(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=5),
)
seeds = st.integers(min_value=0, max_value=2**20)


def _assert_tree_close(actual, expected, **kw):
    assert set(actual) == set(expected)
    for name in expected:
        np.testing.assert_allclose(
            actual[name], expected[name], rtol=RTOL, atol=ATOL, err_msg=name, **kw
        )


def _check_layer(layer, params_list, xs, dys):
    """Stacked forward/backward == per-task forward/backward, per layer."""
    stacked = stack_params(params_list) if params_list[0] else {}
    y, cache = layer.forward(stacked, np.stack(xs))
    dx, grads = layer.backward(stacked, cache, np.stack(dys))
    for t, (params, x, dy) in enumerate(zip(params_list, xs, dys)):
        y_t, cache_t = layer.forward(params, x)
        dx_t, grads_t = layer.backward(params, cache_t, dy)
        np.testing.assert_allclose(y[t], y_t, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(dx[t], dx_t, rtol=RTOL, atol=ATOL)
        _assert_tree_close({k: v[t] for k, v in grads.items()}, grads_t)


class TestLayerEquivalence:
    @given(shape=shapes, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_linear_stacked_matches_per_task(self, shape, seed):
        n_tasks, batch, n_in = shape
        rng = np.random.default_rng(seed)
        layer = Linear(n_in, 3)
        params_list = [layer.init_params(rng) for _ in range(n_tasks)]
        xs = [rng.normal(size=(batch, n_in)) for _ in range(n_tasks)]
        dys = [rng.normal(size=(batch, 3)) for _ in range(n_tasks)]
        _check_layer(layer, params_list, xs, dys)

    @given(shape=shapes, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_linear_shared_weight_broadcasts(self, shape, seed):
        """Unstacked W against (T, batch, in) inputs: per-task grads."""
        n_tasks, batch, n_in = shape
        rng = np.random.default_rng(seed)
        layer = Linear(n_in, 3)
        params = layer.init_params(rng)
        xs = np.stack([rng.normal(size=(batch, n_in)) for _ in range(n_tasks)])
        dys = np.stack([rng.normal(size=(batch, 3)) for _ in range(n_tasks)])
        y, cache = layer.forward(params, xs)
        dx, grads = layer.backward(params, cache, dys)
        assert grads["W"].shape == (n_tasks, n_in, 3)
        for t in range(n_tasks):
            y_t, cache_t = layer.forward(params, xs[t])
            dx_t, grads_t = layer.backward(params, cache_t, dys[t])
            np.testing.assert_allclose(y[t], y_t, rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(dx[t], dx_t, rtol=RTOL, atol=ATOL)
            _assert_tree_close({k: v[t] for k, v in grads.items()}, grads_t)

    @given(shape=shapes, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_layernorm_stacked_matches_per_task(self, shape, seed):
        n_tasks, batch, dim = shape
        rng = np.random.default_rng(seed)
        layer = LayerNorm(dim)
        params_list = [
            {"gamma": rng.normal(size=dim), "beta": rng.normal(size=dim)}
            for _ in range(n_tasks)
        ]
        xs = [rng.normal(size=(batch, dim)) for _ in range(n_tasks)]
        dys = [rng.normal(size=(batch, dim)) for _ in range(n_tasks)]
        _check_layer(layer, params_list, xs, dys)

    @given(shape=shapes, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_embedding_stacked_matches_per_task(self, shape, seed):
        n_tasks, batch, _ = shape
        rng = np.random.default_rng(seed)
        layer = Embedding(7, 3)
        params_list = [layer.init_params(rng) for _ in range(n_tasks)]
        xs = [rng.integers(0, 7, size=batch) for _ in range(n_tasks)]
        dys = [rng.normal(size=(batch, 3)) for _ in range(n_tasks)]
        _check_layer(layer, params_list, xs, dys)

    def test_stacked_embedding_rejects_misaligned_indices(self):
        layer = Embedding(5, 2)
        stacked = stack_params(
            [layer.init_params(np.random.default_rng(s)) for s in range(3)]
        )
        with pytest.raises(ValueError, match="stacked embedding"):
            layer.forward(stacked, np.array([0, 1]))

    @pytest.mark.parametrize("layer_cls", [Relu, Sigmoid, Tanh, Softmax])
    def test_activations_elementwise_over_task_axis(self, layer_cls):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4, 5))
        dy = rng.normal(size=(3, 4, 5))
        layer = layer_cls()
        y, cache = layer.forward({}, x)
        dx, _ = layer.backward({}, cache, dy)
        for t in range(3):
            y_t, cache_t = layer.forward({}, x[t])
            dx_t, _ = layer.backward({}, cache_t, dy[t])
            np.testing.assert_allclose(y[t], y_t, rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(dx[t], dx_t, rtol=RTOL, atol=ATOL)

    def test_dropout_identity_matches(self):
        x = np.ones((2, 3, 4))
        y, _ = Dropout(0.5).forward({}, x, train=False)
        np.testing.assert_array_equal(y, x)

    @given(shape=shapes, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_sequential_mlp_stacked_matches_per_task(self, shape, seed):
        n_tasks, batch, n_in = shape
        rng = np.random.default_rng(seed)
        net = mlp([n_in, 4, 2], activation="tanh", out_activation="sigmoid")
        params_list = [net.init_params(rng) for _ in range(n_tasks)]
        xs = [rng.normal(size=(batch, n_in)) for _ in range(n_tasks)]
        dys = [rng.normal(size=(batch, 2)) for _ in range(n_tasks)]
        _check_layer(net, params_list, xs, dys)


class TestLossEquivalence:
    @given(
        n_tasks=st.integers(1, 5),
        widths=st.lists(st.integers(1, 9), min_size=5, max_size=5),
        seed=seeds,
    )
    @settings(max_examples=30, deadline=None)
    def test_masked_per_task_bce_matches_scalar(self, n_tasks, widths, seed):
        """Padded+masked task rows reproduce each task's own scalar BCE."""
        rng = np.random.default_rng(seed)
        widths = widths[:n_tasks]
        max_w = max(widths)
        preds = rng.uniform(0.01, 0.99, size=(n_tasks, max_w))
        targets = rng.uniform(0.0, 1.0, size=(n_tasks, max_w))
        mask = np.zeros((n_tasks, max_w))
        for t, width in enumerate(widths):
            mask[t, :width] = 1.0
        losses, grads = binary_cross_entropy_tasks(preds, targets, mask=mask)
        for t, width in enumerate(widths):
            loss_t, grad_t = binary_cross_entropy(preds[t, :width], targets[t, :width])
            np.testing.assert_allclose(losses[t], loss_t, rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(grads[t, :width], grad_t, rtol=RTOL, atol=ATOL)
            np.testing.assert_array_equal(grads[t, width:], 0.0)

    def test_unmasked_matches_scalar(self):
        rng = np.random.default_rng(3)
        preds = rng.uniform(0.05, 0.95, size=(4, 6))
        targets = (rng.random((4, 6)) < 0.5).astype(float)
        losses, grads = binary_cross_entropy_tasks(preds, targets)
        for t in range(4):
            loss_t, grad_t = binary_cross_entropy(preds[t], targets[t])
            np.testing.assert_allclose(losses[t], loss_t, rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(grads[t], grad_t, rtol=RTOL, atol=ATOL)


def _model(content_dim: int = 5) -> PreferenceModel:
    # float64: these properties pin stacked == scalar at near-bitwise
    # tolerances, which the default float32 meta stack cannot express.
    return PreferenceModel(
        PreferenceModelConfig(
            content_dim=content_dim, embed_dim=3, hidden_dims=(4,), dtype=np.float64
        )
    )


def _items(rng: np.random.Generator, n_tasks: int, content_dim: int = 5):
    """Ragged dense support sets with a distinct user row per support row."""
    out = []
    for _ in range(n_tasks):
        n_s = int(rng.integers(1, 7))
        out.append(
            (
                rng.random((n_s, content_dim)),
                rng.random((n_s, content_dim)),
                (rng.random(n_s) < 0.5).astype(float),
            )
        )
    return out


def _padded(arrays, width: int) -> np.ndarray:
    return np.stack([pad_axis(a, 0, width) for a in arrays])


N_USERS = 8
N_ITEMS = 20


def _tasks(rng: np.random.Generator, n_tasks: int) -> list[PreferenceTask]:
    tasks = []
    for _ in range(n_tasks):
        n_s = int(rng.integers(1, 7))
        n_q = int(rng.integers(1, 5))
        tasks.append(
            PreferenceTask(
                user_row=int(rng.integers(0, N_USERS)),
                support_items=rng.choice(N_ITEMS, size=n_s, replace=False),
                support_labels=(rng.random(n_s) < 0.5).astype(float),
                query_items=rng.choice(N_ITEMS, size=n_q, replace=False),
                query_labels=(rng.random(n_q) < 0.5).astype(float),
            )
        )
    return tasks


def _corpus(rng: np.random.Generator, n_tasks: int, content_dim: int = 5):
    """A ragged float64 corpus: one view per task, one user row per task."""
    content = pack_content(
        rng.random((N_USERS, content_dim)),
        rng.random((N_ITEMS, content_dim)),
        dtype=np.float64,
    )
    builder = TaskCorpusBuilder(content)
    builder.extend(_tasks(rng, n_tasks))
    return builder.build()


class TestModelEquivalence:
    @given(n_tasks=st.integers(1, 5), seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_stacked_loss_and_grads_match_per_task(self, n_tasks, seed):
        rng = np.random.default_rng(seed)
        model = _model()
        params_list = [model.init_params(int(rng.integers(0, 2**31))) for _ in range(n_tasks)]
        items = _items(rng, n_tasks)
        width = max(labels.size for _, _, labels in items)
        mask = _padded([np.ones(labels.size) for _, _, labels in items], width)
        losses, grads = model.loss_and_grads(
            stack_params(params_list),
            _padded([user for user, _, _ in items], width),
            _padded([item for _, item, _ in items], width),
            _padded([labels for _, _, labels in items], width),
            mask=mask,
        )
        for t, (params, (user, item, labels)) in enumerate(zip(params_list, items)):
            loss_t, grads_t = model.loss_and_grads(params, user, item, labels)
            np.testing.assert_allclose(losses[t], loss_t, rtol=RTOL, atol=ATOL)
            _assert_tree_close({k: v[t] for k, v in grads.items()}, grads_t)


class TestMAMLEquivalence:
    @given(
        n_tasks=st.integers(1, 6),
        local_only=st.booleans(),
        seed=seeds,
    )
    @settings(max_examples=15, deadline=None)
    def test_meta_step_vectorized_matches_loop(self, n_tasks, local_only, seed):
        """Same params, same losses, same Adam moments after three steps."""
        rng = np.random.default_rng(seed)
        corpus = _corpus(rng, n_tasks)
        ids = np.arange(corpus.n_views)
        items = oracle.dense_tasks(corpus)
        config = dict(inner_lr=0.1, inner_steps=2, outer_lr=1e-2,
                      local_only_decision=local_only)
        vec = MAML(_model(), MAMLConfig(**config), seed=seed)
        ref = MAML(_model(), MAMLConfig(**config), seed=seed)
        _assert_tree_close(vec.params, ref.params)
        for _ in range(3):
            loss_vec = vec.meta_step_corpus(corpus, ids)
            loss_ref = oracle.meta_step(ref, items)
            np.testing.assert_allclose(loss_vec, loss_ref, rtol=1e-8, atol=1e-10)
        _assert_tree_close(vec.params, ref.params)
        _assert_tree_close(vec._optimizer._m, ref._optimizer._m)
        _assert_tree_close(vec._optimizer._v, ref._optimizer._v)
        assert vec._optimizer._t == ref._optimizer._t

    @given(
        n_tasks=st.integers(1, 6),
        steps=st.integers(0, 3),
        local_only=st.booleans(),
        seed=seeds,
    )
    @settings(max_examples=15, deadline=None)
    def test_adapt_corpus_matches_adapt(self, n_tasks, steps, local_only, seed):
        rng = np.random.default_rng(seed)
        maml = MAML(
            _model(),
            MAMLConfig(inner_lr=0.1, local_only_decision=local_only),
            seed=seed,
        )
        corpus = _corpus(rng, n_tasks)
        fasts = maml.adapt_corpus(corpus, steps=steps, max_chunk=3)
        for item, fast in zip(oracle.dense_tasks(corpus), fasts):
            _assert_tree_close(fast, oracle.adapt(maml, item, steps=steps))

    @given(n_tasks=st.integers(2, 5), seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_stacked_candidate_scoring_matches_per_state(self, n_tasks, seed):
        """Distinct per-user fast weights score identically stacked or not."""
        from repro.data.negative_sampling import EvalInstance

        rng = np.random.default_rng(seed)
        maml = MAML(_model(), MAMLConfig(inner_lr=0.1), seed=seed)
        states = maml.adapt_corpus(_corpus(rng, n_tasks), steps=2)
        user_content = rng.random((n_tasks + 2, 5))
        item_content = rng.random((20, 5))
        instances = [
            EvalInstance(
                user_row=t,
                pos_item=int(rng.integers(0, 20)),
                neg_items=rng.choice(20, size=int(rng.integers(1, 8)), replace=False),
            )
            for t in range(n_tasks)
        ]
        batched = batched_candidate_scores(
            maml, user_content, item_content, states, instances
        )
        for state, instance, scores in zip(states, instances, batched):
            users = np.repeat(
                user_content[instance.user_row][None, :], instance.candidates.size, axis=0
            )
            expected = maml.predict(
                users, item_content[instance.candidates], params=state
            )
            np.testing.assert_allclose(scores, expected, rtol=1e-8, atol=1e-10)

    def test_scoring_with_skewed_group_sizes_matches(self):
        """One huge shared-params group + small per-user groups.

        The oversized group takes the concatenated path (so its size does
        not inflate every other group's padding) while the small adapted
        groups stack — results must be identical either way.
        """
        from repro.data.negative_sampling import EvalInstance

        rng = np.random.default_rng(7)
        maml = MAML(_model(), MAMLConfig(inner_lr=0.1), seed=7)
        adapted = maml.adapt_corpus(_corpus(rng, 3), steps=2)
        user_content = rng.random((10, 5))
        item_content = rng.random((50, 5))
        # Six un-adapted requests (None -> shared meta params, big group
        # with large candidate lists) plus three adapted users (small).
        states = [None] * 6 + adapted
        instances = [
            EvalInstance(u, int(rng.integers(0, 50)), rng.choice(50, 40, replace=False))
            for u in range(6)
        ] + [
            EvalInstance(6 + t, int(rng.integers(0, 50)), rng.choice(50, 4, replace=False))
            for t in range(3)
        ]
        batched = batched_candidate_scores(
            maml, user_content, item_content, states, instances
        )
        for state, instance, scores in zip(states, instances, batched):
            users = np.repeat(
                user_content[instance.user_row][None, :], instance.candidates.size, axis=0
            )
            expected = maml.predict(
                users, item_content[instance.candidates], params=state or maml.params
            )
            np.testing.assert_allclose(scores, expected, rtol=1e-8, atol=1e-10)

    def test_adapt_corpus_states_do_not_pin_chunk_storage(self):
        """Cached per-user fast weights own their arrays (no chunk views)."""
        rng = np.random.default_rng(0)
        maml = MAML(_model(), MAMLConfig(inner_lr=0.1), seed=0)
        states = maml.adapt_corpus(_corpus(rng, 4), steps=1)
        for state in states:
            for name, value in state.items():
                assert value.base is None or value.base is maml.params.get(name), name

    def test_finetune_delegates_to_adapt(self):
        """Serving fine-tuning (``adapt_task_states``) is ``adapt_corpus``."""
        rng = np.random.default_rng(0)
        maml = MAML(_model(), MAMLConfig(inner_steps=1), seed=0)
        content = pack_content(rng.random((N_USERS, 5)), rng.random((N_ITEMS, 5)))
        tasks = _tasks(rng, 3)
        builder = TaskCorpusBuilder(content)
        builder.extend(tasks)
        for steps in (2, maml.config.inner_steps):
            states = adapt_task_states(maml, content.user, content.item, tasks, steps)
            expected = maml.adapt_corpus(builder.build(), steps=steps)
            for state, fast in zip(states, expected):
                for name in fast:
                    np.testing.assert_array_equal(state[name], fast[name])


class TestStackedOptimizer:
    def test_stacked_adam_equals_independent_adams(self):
        """One Adam over stacked params == T Adams over the per-task dicts."""
        rng = np.random.default_rng(0)
        per_task = [{"W": rng.normal(size=(3, 2))} for _ in range(4)]
        stacked = stack_params(per_task)
        opt_stacked = Adam(stacked, lr=0.05)
        opts = [Adam(p, lr=0.05) for p in per_task]
        for step in range(5):
            grads = [{"W": rng.normal(size=(3, 2))} for _ in range(4)]
            opt_stacked.step({"W": np.stack([g["W"] for g in grads])})
            for opt, grad in zip(opts, grads):
                opt.step(grad)
        for t, params in enumerate(per_task):
            np.testing.assert_allclose(
                stacked["W"][t], params["W"], rtol=RTOL, atol=ATOL
            )
