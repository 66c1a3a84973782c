"""Model-agnostic meta-learning (Finn et al., 2017) over preference tasks.

The inner loop locally adapts parameters on a task's support set (Eq. 1);
the outer loop updates the meta-initialization from the query-set loss.  We
use the first-order approximation (FOMAML): the query gradient evaluated at
the adapted parameters is applied to the meta-parameters directly.  An
optional MeLU-style restriction adapts only the decision (MLP) layers in the
inner loop while embeddings stay global.

Tasks live in a packed :class:`~repro.meta.corpus.TaskCorpus` and every
computation runs task-batched over it.  A batch of views is fancy-indexed
from the corpus pools into reused scratch buffers, content rows are
gathered only inside the step, and the whole batch is adapted in one
batched inner loop over stacked fast weights (``[T, ...]`` parameter
arrays, see :mod:`repro.nn.stacking`).  Meta-training
(:meth:`MAML.fit` / :meth:`MAML.meta_step_corpus`), meta-testing many
cold-start users at once (:meth:`MAML.adapt_corpus`) and the streaming
refresh (:meth:`MAML.refresh_from`) all share that one inner loop, so each
inner step costs one numpy pass per batch instead of one per task.  The
per-task dense reference the equivalence tests pin it against lives under
``tests/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.meta.corpus import (
    BatchScratch,
    IndexedBatch,
    PackedContent,
    TaskCorpus,
    TaskCorpusBuilder,
    pack_content,
)
from repro.meta.model import PreferenceModel
from repro.nn.module import Params
from repro.nn.optim import Adam, clip_grad_norm, mean_task_grads
from repro.nn.stacking import stack_params, tile_params, unstack_params
from repro.obs import metrics as obs_metrics
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class MAMLConfig:
    """MAML hyper-parameters.

    ``inner_lr`` is α of Eq. (1); ``local_only_decision`` restricts the
    inner-loop update to the MLP decision layers (MeLU's scheme).
    """

    inner_lr: float = 0.05
    inner_steps: int = 2
    outer_lr: float = 1e-3
    meta_batch_size: int = 16
    grad_clip: float = 5.0
    local_only_decision: bool = False

    def __post_init__(self) -> None:
        if self.inner_lr <= 0 or self.outer_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.inner_steps <= 0 or self.meta_batch_size <= 0:
            raise ValueError("inner_steps and meta_batch_size must be positive")


def uniform_width_chunks(
    widths: np.ndarray, order: np.ndarray, max_chunk: int
) -> list[np.ndarray]:
    """Split a width-sorted index ``order`` into same-width runs ≤ ``max_chunk``.

    Adapting a chunk of views that share one support width is bit-identical
    to adapting each view alone — the per-task GEMM rows are unchanged by
    the extra task axis — but *padding* a mixed-width chunk perturbs the
    low-order bits of every shorter view's updates.  Cutting chunks at width
    boundaries therefore makes adapted fast weights a pure function of
    ``(params, view)``, independent of which other views share the call;
    the sharded serving layer's bit-equivalence guarantee rests on this.
    """
    chunks: list[np.ndarray] = []
    start = 0
    for i in range(1, order.size + 1):
        if (
            i == order.size
            or widths[order[i]] != widths[order[start]]
            or i - start >= max_chunk
        ):
            chunks.append(order[start:i])
            start = i
    return chunks


class MAML:
    """First-order MAML driving a :class:`PreferenceModel`."""

    def __init__(
        self,
        model: PreferenceModel,
        config: MAMLConfig | None = None,
        seed: int | np.random.Generator | None = 0,
    ):
        self.model = model
        self.config = config or MAMLConfig()
        self._rng = ensure_rng(seed)
        self.params: Params = model.init_params(self._rng)
        self._optimizer = Adam(self.params, lr=self.config.outer_lr)
        self._scratch = BatchScratch()
        # Training spans report through the process-global registry:
        # trainers are built deep inside methods, so per-instance wiring
        # would never reach the CLI/bench edges that read the metrics.
        self._metrics = obs_metrics()
        self._adaptable: set[str] | None = None
        if self.config.local_only_decision:
            self._adaptable = set(model.decision_params(self.params))
        # With frozen embeddings, the inner loop only needs the MLP head:
        # the support embedding is computed once per adaptation and reused
        # across every inner step (a large win — the embedding GEMMs over
        # high-dimensional content dominate the full backward pass).
        self._decision_only = (
            self._adaptable is not None
            and hasattr(model, "embed_joint")
            and hasattr(model, "decision_loss_and_grads")
            and all(name.startswith("mlp.") for name in self._adaptable)
        )

    @property
    def _adaptable_keys(self) -> set[str]:
        """Parameter names the inner loop may update."""
        if self._adaptable is not None:
            return set(self._adaptable)
        return set(self.params)

    # ------------------------------------------------------------------
    def _adapt_gathered(
        self,
        content: PackedContent,
        batch: IndexedBatch,
        steps: int | None = None,
    ) -> tuple[np.ndarray, Params]:
        """Inner loop (Eq. 1) over one gathered batch; returns ``(cu, fast)``.

        Gathers the support-side content rows, then runs ``steps`` (default
        ``config.inner_steps``) batched updates over all ``T`` tasks at
        once.  ``fast`` is a stacked fast-weight dict: every adaptable
        parameter carries a leading ``[T, ...]`` task axis while the others
        (MeLU's global embeddings) stay shared by reference.  Padded support
        rows are masked out of every gradient, so a task with no support
        rows keeps the meta-initialization.  The ``(T, 1, C)`` broadcast
        user rows ``cu`` are returned for the caller's query pass.
        """
        with self._metrics.span("meta.gather"):
            cu = content.user[batch.user_rows][:, None, :]
            ci = self._scratch.get(
                "ci_support",
                batch.support_items.shape + (content.dim,),
                content.item.dtype,
            )
            np.take(content.item, batch.support_items, axis=0, out=ci)
        adaptable = self._adaptable_keys & set(self.params)
        fast = tile_params(self.params, len(batch), keys=adaptable)
        n_steps = self.config.inner_steps if steps is None else steps
        if self._decision_only:
            # Frozen embeddings: embed every task's support set once (the
            # embedding weights are shared and never change inside the inner
            # loop), then iterate only the stacked MLP head.
            joint = self.model.embed_joint(fast, cu, ci)
        for _ in range(n_steps):
            if self._decision_only:
                _, grads = self.model.decision_loss_and_grads(
                    fast, joint, batch.support_labels, mask=batch.support_mask
                )
            else:
                _, grads = self.model.loss_and_grads(
                    fast, cu, ci, batch.support_labels, mask=batch.support_mask
                )
            # In place: the fast weights keep the parameter dtype whatever
            # the content dtype the gradients were computed in.
            for name in adaptable:
                grad = grads[name]
                grad *= self.config.inner_lr
                fast[name] -= grad
        return cu, fast

    def meta_step_corpus(self, corpus: TaskCorpus, view_ids: np.ndarray) -> float:
        """One FOMAML outer-loop update over ``view_ids``; returns mean query loss.

        The batch is assembled by fancy-indexing the corpus pools into
        reused scratch buffers (no per-task Python work), content rows are
        gathered once per side, and the user row rides the batch as a
        ``(T, 1, C)`` broadcast input — the only dense ``(T, S, C)`` array
        is the item-content gather, which lives in scratch and dies with
        the step.  Per-task query gradients are averaged over the task axis,
        clipped, and applied with Adam.
        """
        content = corpus.content
        if content is None:
            raise ValueError("corpus has no content attached")
        with self._metrics.span("meta.step", size=len(view_ids)):
            with self._metrics.span("meta.gather"):
                batch = corpus.gather_batch(view_ids, scratch=self._scratch)
            cu, fast = self._adapt_gathered(content, batch)
            ci_q = self._scratch.get(
                "ci_query",
                batch.query_items.shape + (content.dim,),
                content.item.dtype,
            )
            with self._metrics.span("meta.gather"):
                np.take(content.item, batch.query_items, axis=0, out=ci_q)
            losses, grads = self.model.loss_and_grads(
                fast, cu, ci_q, batch.query_labels, mask=batch.query_mask
            )
            meta_grads = mean_task_grads(grads)
            clip_grad_norm(meta_grads, self.config.grad_clip)
            self._optimizer.step(meta_grads)
        return float(np.mean(losses))

    def fit(self, tasks: TaskCorpus, epochs: int, shuffle: bool = True) -> list[float]:
        """Meta-train for ``epochs`` passes over ``tasks``; returns loss trace.

        Each epoch iterates the corpus's bucketed batches of view ids
        (:meth:`~repro.meta.corpus.TaskCorpus.epoch_batches`, shuffled by
        this instance's generator) through :meth:`meta_step_corpus`.
        """
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        if not isinstance(tasks, TaskCorpus):
            raise TypeError("fit expects a TaskCorpus (see TaskCorpusBuilder)")
        history: list[float] = []
        bs = self.config.meta_batch_size
        for _ in range(epochs):
            with self._metrics.span("meta.epoch", size=tasks.n_views):
                epoch_loss = 0.0
                n_batches = 0
                for view_ids in tasks.epoch_batches(bs, rng=self._rng, shuffle=shuffle):
                    epoch_loss += self.meta_step_corpus(tasks, view_ids)
                    n_batches += 1
            history.append(epoch_loss / max(n_batches, 1))
        return history

    def adapt_corpus(
        self,
        corpus: TaskCorpus,
        steps: int | None = None,
        max_chunk: int = 64,
    ) -> list[Params]:
        """Adapt every view of ``corpus`` independently (meta-testing).

        Views are grouped into same-support-width chunks of at most
        ``max_chunk`` (see :func:`uniform_width_chunks`); each chunk is one
        fancy-indexed gather plus one batched inner loop, with no
        padding, so every view's fast weights are bit-identical to adapting
        it alone.  ``steps`` overrides ``config.inner_steps``.  Returns one
        owning fast-weight dict per view (shared non-adapted weights stay
        shared).
        """
        if max_chunk <= 0:
            raise ValueError("max_chunk must be positive")
        content = corpus.content
        if content is None:
            raise ValueError("corpus has no content attached")
        widths = corpus.view_support_lens()
        order = np.argsort(widths, kind="stable")
        results: list[Params | None] = [None] * corpus.n_views
        for chunk in uniform_width_chunks(widths, order, max_chunk):
            batch = corpus.gather_batch(
                chunk, scratch=self._scratch, support_only=True
            )
            _, fast = self._adapt_gathered(content, batch, steps=steps)
            # copy=True: the per-view dicts may be cached long past this
            # chunk (serving LRU) and must not pin the stacked block alive.
            parts = unstack_params(
                fast,
                len(batch),
                stacked_keys=self._adaptable_keys & set(fast),
                copy=True,
            )
            for i, part in zip(chunk, parts):
                results[int(i)] = part
        return results  # type: ignore[return-value]

    def refresh_from(
        self,
        corpus: TaskCorpus,
        view_ids: np.ndarray | None = None,
        meta_lr: float = 0.1,
        steps: int | None = None,
        max_chunk: int = 64,
    ) -> float:
        """Reptile-style meta-refresh from (a tail of) a task corpus.

        Adapts each selected view from the current initialization and nudges
        the meta-parameters toward the mean adapted solution: ``θ ← θ +
        ε·mean_i(φ_i − θ)`` over the adaptable keys only (Reptile's outer
        step, first-order like the FOMAML trainer).  This is the streaming
        counterpart of :meth:`fit` — O(tail) instead of O(corpus), no
        optimizer state touched — meant to absorb freshly observed tasks
        between full retrains.  Updated arrays are assigned *into* the
        existing ``self.params`` dict (never a new dict), so the optimizer
        and any aliased references see the refresh; memmap-backed artifact
        params are replaced by in-memory arrays, not written through.

        Returns the RMS of the applied parameter delta (0.0 when no views).
        """
        if not 0.0 < meta_lr <= 1.0:
            raise ValueError("meta_lr must be in (0, 1]")
        ids = (
            np.arange(corpus.n_views)
            if view_ids is None
            else np.asarray(view_ids, dtype=np.int64)
        )
        if ids.size == 0:
            return 0.0
        if corpus.content is None:
            raise ValueError("corpus has no content attached")
        adaptable = sorted(self._adaptable_keys & set(self.params))
        totals = {
            key: np.zeros(self.params[key].shape, dtype=np.float64)
            for key in adaptable
        }
        widths = corpus.view_support_lens(ids)
        order = np.argsort(widths, kind="stable")
        for chunk in uniform_width_chunks(widths, order, max_chunk):
            batch = corpus.gather_batch(
                ids[chunk], scratch=self._scratch, support_only=True
            )
            _, fast = self._adapt_gathered(corpus.content, batch, steps=steps)
            for key in adaptable:
                totals[key] += (fast[key] - self.params[key][None]).sum(axis=0)
        scale = meta_lr / ids.size
        sq_sum = 0.0
        n_elems = 0
        for key in adaptable:
            delta = scale * totals[key]
            self.params[key] = np.asarray(
                self.params[key] + delta, dtype=self.params[key].dtype
            )
            sq_sum += float(np.sum(delta * delta))
            n_elems += delta.size
        return float(np.sqrt(sq_sum / max(n_elems, 1)))

    # ------------------------------------------------------------------
    def predict(
        self,
        user_content: np.ndarray,
        item_content: np.ndarray,
        params: Params | None = None,
    ) -> np.ndarray:
        """Score aligned (user, item) content rows with meta or fast weights.

        Scores come back in the model's dtype whatever the content dtype.
        """
        preds = self.model.predict(
            params if params is not None else self.params, user_content, item_content
        )
        return np.asarray(preds, dtype=self.model.config.dtype)


def batched_candidate_scores(
    maml: MAML,
    user_content: np.ndarray,
    item_content: np.ndarray,
    states: Sequence[Params | None],
    instances: Sequence,
    tables=None,
) -> list[np.ndarray]:
    """Score many eval instances in as few forwards as possible.

    Instances sharing the same adapted parameter dict (by identity — e.g.
    un-adapted requests all using the meta-initialization, or several
    requests for one cached user) are coalesced into a single ``predict``
    over their concatenated candidate contents.  Requests with *distinct*
    per-user fast weights (a micro-batch flush of many adapted users) are
    scored in one stacked forward: their parameter dicts are stacked along
    the task axis and their candidate lists padded to a common width, so
    the whole flush costs one batched pass instead of one forward per
    user.  This is the batched backend of ``score_with_state_batch``
    for MAML-based methods.

    ``tables`` (a :class:`~repro.meta.serving.FrozenTowerTables`) replaces
    the tower GEMMs with row gathers for every group whose parameter dict
    still aliases the tower arrays the tables were baked from: the item
    side always, the user side additionally requiring an un-adapted user
    tower.  Groups that adapted a tower — and any single-row forward,
    whose GEMV kernel is not row-subset stable — take the exact historical
    path, so results are bitwise identical with or without tables.

    The data path is index-based: per group only int index arrays (user
    row per candidate row, candidate item ids) are concatenated/padded and
    the content rows are gathered in one fancy-indexing pass per forward —
    no per-instance content copies.
    """
    if len(states) != len(instances):
        raise ValueError("states and instances must align")
    resolved = [s if s is not None else maml.params for s in states]
    groups: dict[int, list[int]] = {}
    for idx, params in enumerate(resolved):
        groups.setdefault(id(params), []).append(idx)
    results: list[np.ndarray | None] = [None] * len(instances)
    if tables is not None and not (
        tables.item_current(maml.params) and tables.user_current(maml.params)
    ):
        tables = None  # stale bake: never serve from it

    def group_indices(indices: list[int]) -> tuple[np.ndarray, np.ndarray, list[int]]:
        sizes = [instances[i].candidates.size for i in indices]
        rows = np.repeat([instances[i].user_row for i in indices], sizes)
        cols = np.concatenate([instances[i].candidates for i in indices])
        return rows, cols, sizes

    def scatter(indices: list[int], sizes: list[int], preds: np.ndarray) -> None:
        offset = 0
        for i, size in zip(indices, sizes):
            results[i] = preds[offset : offset + size]
            offset += size

    def score_solo(indices: list[int]) -> None:
        rows, cols, sizes = group_indices(indices)
        params = resolved[indices[0]]
        if tables is not None and cols.size >= 2 and tables.item_current(params):
            # Item rows gather from the baked table; the user side gathers
            # too when its tower is un-adapted, else embeds live (the same
            # multi-row GEMM the full path runs — identical either way).
            user_embeds = (
                tables.user[rows] if tables.user_current(params) else None
            )
            preds = maml.model.forward_from_item_embeddings(
                params, user_content[rows], tables.item[cols], user_embeds
            )
        else:
            preds = maml.predict(user_content[rows], item_content[cols], params=params)
        scatter(indices, sizes, preds)

    group_list = list(groups.values())
    if len(group_list) == 1:
        score_solo(group_list[0])
        return results  # type: ignore[return-value]

    # Stacked path: one padded forward over similarly-sized parameter
    # groups.  Groups much larger than the median (e.g. one shared
    # meta-params group coalescing every un-adapted request) would force
    # every other group's padding up to their size — those are scored
    # through the concatenated single-group path instead, keeping the
    # padded memory within a small factor of the real row count.
    row_counts = {
        id(indices): sum(instances[i].candidates.size for i in indices)
        for indices in group_list
    }
    median_rows = float(np.median(list(row_counts.values())))
    stackable = [g for g in group_list if row_counts[id(g)] <= 2.0 * median_rows]
    oversized = [g for g in group_list if row_counts[id(g)] > 2.0 * median_rows]
    for indices in oversized:
        score_solo(indices)
    if len(stackable) == 1:
        score_solo(stackable[0])
        return results  # type: ignore[return-value]

    def score_stacked(group_set: list[list[int]], fast: bool) -> None:
        if not group_set:
            return
        if len(group_set) == 1:
            score_solo(group_set[0])
            return
        gathered = [group_indices(indices) for indices in group_set]
        width = max(rows.size for rows, _, _ in gathered)
        # Padded positions point at row/item 0 — valid content, masked out
        # by the scatter reading only each group's real span.
        row_idx = np.zeros((len(group_set), width), dtype=np.int64)
        col_idx = np.zeros((len(group_set), width), dtype=np.int64)
        for g, (rows, cols, _) in enumerate(gathered):
            row_idx[g, : rows.size] = rows
            col_idx[g, : cols.size] = cols
        if fast and width >= 2:
            # Both towers frozen for every group: gather (G, W, E) slabs
            # from the tables and stack only the per-group MLP heads.
            head = stack_params(
                [
                    {
                        k: v
                        for k, v in resolved[indices[0]].items()
                        if k.startswith("mlp.")
                    }
                    for indices in group_set
                ]
            )
            preds = maml.model.forward_from_item_embeddings(
                head, None, tables.item[col_idx], tables.user[row_idx]
            )
        else:
            stacked = stack_params([resolved[indices[0]] for indices in group_set])
            preds = maml.predict(
                user_content[row_idx], item_content[col_idx], params=stacked
            )
        for g, indices in enumerate(group_set):
            scatter(indices, gathered[g][2], preds[g])

    def fully_frozen(indices: list[int]) -> bool:
        params = resolved[indices[0]]
        return (
            tables is not None
            and tables.item_current(params)
            and tables.user_current(params)
        )

    fast_groups = [g for g in stackable if fully_frozen(g)]
    slow_groups = [g for g in stackable if not fully_frozen(g)]
    score_stacked(slow_groups, False)
    score_stacked(fast_groups, True)
    return results  # type: ignore[return-value]


def adapt_task_states(
    maml: MAML,
    user_content: np.ndarray,
    item_content: np.ndarray,
    tasks: Sequence,
    steps: int,
) -> list[Params | None]:
    """Fast weights for a batch of support tasks, adapted in one pass.

    The shared ``adapt_users`` backend of MAML-based recommenders: unique
    tasks (by object identity — evaluation aligns many instances to one
    task object) are packed into a transient :class:`TaskCorpus` and
    fine-tuned together through :meth:`MAML.adapt_corpus`; positions whose
    task is ``None``/empty (or when ``steps == 0``) stay ``None``, meaning
    "serve from the meta-initialization".  Instances sharing a task share
    the *same* returned dict, which downstream scoring coalesces by
    identity.
    """
    states: list[Params | None] = [None] * len(tasks)
    slot_of: dict[int, int] = {}
    unique: list = []
    owners: list[list[int]] = []
    for i, task in enumerate(tasks):
        if task is None or task.n_support == 0 or steps == 0:
            continue
        slot = slot_of.get(id(task))
        if slot is None:
            slot = len(unique)
            slot_of[id(task)] = slot
            unique.append(task)
            owners.append([])
        owners[slot].append(i)
    if not unique:
        return states
    builder = TaskCorpusBuilder(pack_content(user_content, item_content))
    builder.extend(unique)
    fasts = maml.adapt_corpus(builder.build(), steps=steps)
    for slot, fast in enumerate(fasts):
        for i in owners[slot]:
            states[i] = fast
    return states


def stream_refresh(
    maml: MAML,
    content: PackedContent,
    tasks: Sequence,
    corpus: TaskCorpus | None = None,
    meta_lr: float = 0.1,
    steps: int | None = None,
) -> tuple[TaskCorpus, dict]:
    """Append observed tasks to a streaming corpus and reptile-refresh.

    The shared ``meta_refresh`` backend of MAML-based recommenders: live
    support tasks (``None``/support-empty entries are skipped) are appended
    to ``corpus`` — created via :meth:`TaskCorpus.empty` on first use, so
    repeated refreshes accumulate an event-log corpus — and only the newly
    appended tail feeds :meth:`MAML.refresh_from`.  Returns the (possibly
    new) corpus plus ``{"n_tasks", "delta_rms"}``.
    """
    if corpus is None:
        corpus = TaskCorpus.empty(content)
    live = [t for t in tasks if t is not None and t.n_support > 0]
    if not live:
        return corpus, {"n_tasks": 0, "delta_rms": 0.0}
    start = corpus.n_views
    corpus.extend(live)
    delta = maml.refresh_from(
        corpus,
        view_ids=np.arange(start, corpus.n_views),
        meta_lr=meta_lr,
        steps=steps,
    )
    return corpus, {"n_tasks": len(live), "delta_rms": delta}


def subsample_support(
    task,
    rng: np.random.Generator,
    max_positives: int = 3,
    neg_per_pos: int = 2,
):
    """Few-shot view of a task: a handful of support positives/negatives.

    Cold-start meta-testing adapts on 1–4 ratings, while warm training tasks
    carry much larger support sets.  Adding subsampled views to the
    meta-training stream aligns the two regimes so the learned
    initialization is good at *few-shot* adaptation.  Returns a new
    :class:`repro.data.tasks.PreferenceTask` with the same query set.
    """
    from dataclasses import replace

    pos_mask = task.support_labels > 0.5
    positives = task.support_items[pos_mask]
    negatives = task.support_items[~pos_mask]
    if positives.size == 0:
        return task
    n_pos = min(max_positives, positives.size)
    keep_pos = rng.choice(positives, size=n_pos, replace=False)
    n_neg = min(neg_per_pos * n_pos, negatives.size)
    keep_neg = (
        rng.choice(negatives, size=n_neg, replace=False)
        if n_neg > 0
        else np.array([], dtype=int)
    )
    items = np.concatenate([keep_pos, keep_neg]).astype(int)
    labels = np.concatenate([np.ones(n_pos), np.zeros(n_neg)])
    return replace(task, support_items=items, support_labels=labels)
