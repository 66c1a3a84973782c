"""Per-task dense MAML oracle: the reference the packed corpus path is pinned to.

:mod:`repro.meta.maml` only ever runs task-batched over a packed corpus
(padded index batches, masks, broadcast user rows, stacked fast weights).
This module restates the same first-order MAML one task at a time on plain
dense arrays — no task axis, no padding, no masks — so the equivalence
suites and benchmarks can check the batched path against the definition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.optim import add_grads, clip_grad_norm


@dataclass(frozen=True)
class DenseTask:
    """One task's support/query rows as dense arrays (user rows broadcast)."""

    support_user: np.ndarray  # (S, C)
    support_item: np.ndarray  # (S, C)
    support_labels: np.ndarray  # (S,)
    query_user: np.ndarray  # (Q, C)
    query_item: np.ndarray  # (Q, C)
    query_labels: np.ndarray  # (Q,)


def dense_task(user_content, item_content, user_row, s_items, s_labels, q_items, q_labels):
    """Dense arrays for index-based task data, at the content dtype."""
    cu = user_content[user_row]
    return DenseTask(
        support_user=np.broadcast_to(cu, (len(s_items), cu.shape[0])),
        support_item=item_content[s_items],
        support_labels=np.asarray(s_labels),
        query_user=np.broadcast_to(cu, (len(q_items), cu.shape[0])),
        query_item=item_content[q_items],
        query_labels=np.asarray(q_labels),
    )


def dense_tasks(corpus, view_ids=None) -> list[DenseTask]:
    """One :class:`DenseTask` per corpus view, built from ``view_arrays``."""
    ids = range(corpus.n_views) if view_ids is None else view_ids
    user, item = corpus.content.user, corpus.content.item
    return [dense_task(user, item, *corpus.view_arrays(int(v))) for v in ids]


def dense_nbytes(corpus, dtype=None) -> int:
    """Bytes of the dense layout of every view: user + item rows and labels."""
    itemsize = np.dtype(dtype or corpus.content.user.dtype).itemsize
    rows = int((corpus.support_lens + corpus.query_lens)[corpus.view_base].sum())
    return rows * (2 * corpus.content.dim + 1) * itemsize


def adapt(maml, task: DenseTask, steps: int | None = None) -> dict:
    """Eq. (1) on one task from ``maml.params``: full or decision-only."""
    fast = dict(maml.params)
    if task.support_labels.size == 0:
        return fast  # the packed path masks every row out: zero gradient
    model = maml.model
    n_steps = maml.config.inner_steps if steps is None else steps
    if maml._decision_only:
        joint = model.embed_joint(fast, task.support_user, task.support_item)
    for _ in range(n_steps):
        if maml._decision_only:
            _, grads = model.decision_loss_and_grads(fast, joint, task.support_labels)
        else:
            _, grads = model.loss_and_grads(
                fast, task.support_user, task.support_item, task.support_labels
            )
        for name in maml._adaptable_keys:
            step = fast[name] - maml.config.inner_lr * grads[name]
            fast[name] = step.astype(fast[name].dtype, copy=False)
    return fast


def meta_step(maml, tasks: list[DenseTask]) -> float:
    """FOMAML outer step on ``maml``: mean query loss, clipped grads, Adam."""
    meta_grads: dict = {}
    total = 0.0
    for task in tasks:
        fast = adapt(maml, task)
        loss, grads = maml.model.loss_and_grads(
            fast, task.query_user, task.query_item, task.query_labels
        )
        total += loss
        add_grads(meta_grads, grads, scale=1.0 / len(tasks))
    clip_grad_norm(meta_grads, maml.config.grad_clip)
    maml._optimizer.step(meta_grads)
    return total / len(tasks)


def fit(maml, corpus, epochs: int, shuffle: bool = True) -> list[float]:
    """``MAML.fit``'s schedule (same rng draws) through :func:`meta_step`."""
    history = []
    for _ in range(epochs):
        batches = corpus.epoch_batches(
            maml.config.meta_batch_size, rng=maml._rng, shuffle=shuffle
        )
        epoch_loss = 0.0
        n_batches = 0
        for ids in batches:
            epoch_loss += meta_step(maml, dense_tasks(corpus, ids))
            n_batches += 1
        history.append(epoch_loss / n_batches)
    return history
