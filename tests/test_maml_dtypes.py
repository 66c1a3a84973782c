"""One dtype contract on every MAML entry point.

Whatever the dtype of the content matrices and task labels, everything MAML
hands back — trained meta-parameters, adapted fast weights, refreshed
parameters, predictions — is in the preference model's own dtype.  A path
that silently upcasts (a float32 model returning float64 fast weights from
float64 content) would make the same user adapt to different bits depending
on how its content arrived.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.tasks import PreferenceTask
from repro.meta.corpus import TaskCorpusBuilder, pack_content
from repro.meta.maml import MAML, MAMLConfig, adapt_task_states
from repro.meta.model import PreferenceModel, PreferenceModelConfig

CONTENT_DIM = 5
N_USERS = 6
N_ITEMS = 20
FLOATS = [np.float32, np.float64]


def _maml(model_dtype, local_only: bool) -> MAML:
    model = PreferenceModel(
        PreferenceModelConfig(
            content_dim=CONTENT_DIM, embed_dim=3, hidden_dims=(4,), dtype=model_dtype
        )
    )
    config = MAMLConfig(meta_batch_size=3, local_only_decision=local_only)
    return MAML(model, config, seed=0)


def _setup(content_dtype, label_dtype):
    rng = np.random.default_rng(0)
    user = rng.random((N_USERS, CONTENT_DIM)).astype(content_dtype)
    item = rng.random((N_ITEMS, CONTENT_DIM)).astype(content_dtype)
    tasks = []
    for row in range(N_USERS):
        n_s = int(rng.integers(1, 6))
        tasks.append(
            PreferenceTask(
                user_row=row,
                support_items=rng.choice(N_ITEMS, size=n_s, replace=False),
                support_labels=(rng.random(n_s) < 0.5).astype(label_dtype),
                query_items=rng.choice(N_ITEMS, size=3, replace=False),
                query_labels=rng.random(3).astype(label_dtype),
            )
        )
    builder = TaskCorpusBuilder(pack_content(user, item, dtype=content_dtype))
    builder.extend(tasks)
    return user, item, tasks, builder.build()


def _assert_params_dtype(params, dtype):
    for name, value in params.items():
        assert value.dtype == dtype, (name, value.dtype)


@pytest.mark.parametrize("local_only", [False, True])
@pytest.mark.parametrize("label_dtype", FLOATS)
@pytest.mark.parametrize("content_dtype", FLOATS)
@pytest.mark.parametrize("model_dtype", FLOATS)
def test_every_entry_point_returns_model_dtype(
    model_dtype, content_dtype, label_dtype, local_only
):
    dtype = np.dtype(model_dtype)
    user, item, tasks, corpus = _setup(content_dtype, label_dtype)
    maml = _maml(model_dtype, local_only)

    trace = maml.fit(corpus, epochs=2)
    assert all(isinstance(loss, float) and np.isfinite(loss) for loss in trace)
    _assert_params_dtype(maml.params, dtype)

    fasts = maml.adapt_corpus(corpus, steps=2)
    assert len(fasts) == corpus.n_views
    for fast in fasts:
        _assert_params_dtype(fast, dtype)

    states = adapt_task_states(maml, user, item, tasks, steps=2)
    for state in states:
        _assert_params_dtype(state, dtype)

    delta = maml.refresh_from(corpus, meta_lr=0.5, steps=1)
    assert delta > 0.0
    _assert_params_dtype(maml.params, dtype)

    rows = np.array([0, 0, 1])
    cols = np.array([2, 5, 7])
    for params in (None, fasts[0]):
        preds = maml.predict(user[rows], item[cols], params=params)
        assert preds.dtype == dtype
        assert preds.shape == (3,)
