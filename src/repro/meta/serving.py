"""Frozen-tower serving tables and the shared MAML serving surface.

The preference model's embedding towers are user-invariant at serving time
whenever the inner loop is MeLU-style decision-only: per-user fast weights
touch only ``mlp.*`` keys, so the ``content_dim -> embed_dim`` tower GEMM
re-runs identically on every request.  :class:`FrozenTowerTables` bakes
both tower outputs once — ``(n_items, E)`` and ``(n_users, E)`` float32
tables — and candidate scoring becomes a gather plus the MLP head.

Exactness is guarded, not assumed.  A table carries the *identity* of the
tower parameter arrays it was computed from; a request takes the fast path
only when the scoring parameter dict still holds those exact array objects.
The adaptation machinery makes this check sufficient:
:func:`~repro.nn.stacking.tile_params` and
:func:`~repro.nn.stacking.unstack_params` share non-adapted parameters *by
reference*, so decision-only fast weights alias the meta tower arrays,
while full adaptation (or a meta-refresh that rewrote the towers) yields
fresh arrays and falls back to the full forward — bit-identically, because
the fallback is the unchanged historical path.

The gather itself is bitwise-faithful for every multi-row request: on this
BLAS a row of an ``(n, C) @ (C, E)`` product equals the same row computed
in any ``(m, C) @ (C, E)`` product with ``m >= 2`` (single-row products go
through a GEMV kernel with a different reduction order), which is the same
row-count-invariance the uniform-width adaptation chunks already rely on.
Single-candidate requests therefore fall back to the full forward, and the
broadcast-user row of :meth:`MAMLServingMixin.score_with_state` is always
embedded live — a ``(1, C)`` product is identical in both paths.

:class:`MAMLServingMixin` also consolidates the previously duplicated
MeLU/MetaDPA serving surface (``adapt_user``/``adapt_users``/
``meta_refresh``/``score*``/``state_dict``) in one place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.meta.corpus import PackedContent, PackedContentMixin
from repro.meta.maml import (
    MAML,
    adapt_task_states,
    batched_candidate_scores,
    stream_refresh,
)
from repro.nn.module import Params

if TYPE_CHECKING:
    from repro.data.negative_sampling import EvalInstance
    from repro.data.tasks import PreferenceTask

__all__ = [
    "FrozenTowerTables",
    "MAMLServingMixin",
    "build_frozen_tower_tables",
    "ITEM_TABLE_KEY",
    "USER_TABLE_KEY",
]

_ITEM_PREFIX = "item_embed."
_USER_PREFIX = "user_embed."

#: Artifact member names (under the ``serving.table.`` namespace) the
#: tables are persisted as — see :meth:`repro.core.Recommender.save`.
ITEM_TABLE_KEY = "item_embeddings"
USER_TABLE_KEY = "user_embeddings"


def _tower_refs(params: Params, prefix: str) -> dict[str, np.ndarray]:
    return {k: v for k, v in params.items() if k.startswith(prefix)}


def _refs_current(refs: dict[str, np.ndarray], params: Params) -> bool:
    for key, value in refs.items():
        if params.get(key) is not value:
            return False
    return True


class FrozenTowerTables:
    """Baked tower outputs plus the identity of the weights they froze.

    ``item`` / ``user`` may be ``np.memmap`` views straight out of an
    uncompressed artifact — every consumer only gathers rows, so N shard
    workers share one page-cache copy and never materialize the tables.
    """

    __slots__ = ("item", "user", "_item_refs", "_user_refs")

    def __init__(
        self,
        item: np.ndarray,
        user: np.ndarray,
        item_refs: dict[str, np.ndarray],
        user_refs: dict[str, np.ndarray],
    ):
        self.item = item
        self.user = user
        self._item_refs = item_refs
        self._user_refs = user_refs

    def item_current(self, params: Params) -> bool:
        """Whether ``params`` still holds the exact item-tower arrays the
        item table was baked from (object identity, not value equality)."""
        return _refs_current(self._item_refs, params)

    def user_current(self, params: Params) -> bool:
        """Identity check for the user-tower arrays behind ``user``."""
        return _refs_current(self._user_refs, params)


def build_frozen_tower_tables(
    maml: MAML, content: PackedContent
) -> FrozenTowerTables:
    """Bake both tower tables from the current meta-parameters."""
    params = maml.params
    return FrozenTowerTables(
        item=maml.model.precompute_item_embeddings(params, content.item),
        user=maml.model.precompute_user_embeddings(params, content.user),
        item_refs=_tower_refs(params, _ITEM_PREFIX),
        user_refs=_tower_refs(params, _USER_PREFIX),
    )


class MAMLServingMixin(PackedContentMixin):
    """The serving surface shared by every MAML-backed recommender.

    Host classes provide ``self.maml`` (set by ``fit``/``load_state_dict``),
    :meth:`_build_model`, and the :attr:`_finetune_steps` /
    :attr:`_maml_config` hooks; the mixin supplies adaptation, streaming
    refresh, table-accelerated scoring and artifact (de)serialization.
    """

    maml: MAML | None
    _tables: FrozenTowerTables | None = None
    _stream_corpus = None

    # -- host hooks -----------------------------------------------------
    @property
    def _finetune_steps(self) -> int:
        """Inner steps used for per-user fine-tuning at serving time."""
        raise NotImplementedError

    @property
    def _maml_config(self):
        """The :class:`~repro.meta.maml.MAMLConfig` to rebuild with."""
        raise NotImplementedError

    def _build_model(self, content_dim: int):
        raise NotImplementedError

    def _require_maml(self) -> MAML:
        if self.maml is None:
            raise RuntimeError("fit() must be called before serving")
        return self.maml

    # -- frozen-tower tables --------------------------------------------
    def invalidate_embedding_tables(self) -> None:
        """Drop the baked tables; they rebake lazily on next use."""
        self._tables = None

    def _scoring_tables(self) -> FrozenTowerTables:
        """Current tables, rebaked if any tower parameter was replaced.

        Staleness is the same identity check the per-request guard uses,
        so a meta-refresh that only moved ``mlp.*`` keys (decision-only
        configs) keeps the baked tables — nothing it changed is in them.
        """
        maml = self._require_maml()
        tables = self._tables
        if (
            tables is None
            or not tables.item_current(maml.params)
            or not tables.user_current(maml.params)
        ):
            tables = build_frozen_tower_tables(maml, self._packed_content())
            self._tables = tables
        return tables

    def serving_tables(self) -> dict[str, np.ndarray]:
        """Arrays for :meth:`Recommender.save` to bake into the artifact."""
        if self.maml is None:
            return {}
        tables = self._scoring_tables()
        return {ITEM_TABLE_KEY: tables.item, USER_TABLE_KEY: tables.user}

    def attach_serving_tables(self, tables: dict[str, np.ndarray]) -> None:
        """Adopt artifact-baked tables (zero-copy for memmap loads).

        Called by :meth:`Recommender.load` after ``load_state_dict``; the
        tables in an artifact were computed from the parameters stored
        beside them, so they are current for the freshly loaded ``maml``.
        Pre-v2 artifacts carry no tables — the (empty) mapping leaves
        ``_tables`` unset and the first scoring call bakes them once.
        """
        item = tables.get(ITEM_TABLE_KEY)
        user = tables.get(USER_TABLE_KEY)
        if item is None or user is None:
            return
        maml = self._require_maml()
        content = self._packed_content()
        embed_dim = maml.model.config.embed_dim
        if item.shape != (content.item.shape[0], embed_dim):
            raise ValueError(
                f"item table shape {item.shape} does not match "
                f"({content.item.shape[0]}, {embed_dim})"
            )
        if user.shape != (content.user.shape[0], embed_dim):
            raise ValueError(
                f"user table shape {user.shape} does not match "
                f"({content.user.shape[0]}, {embed_dim})"
            )
        self._tables = FrozenTowerTables(
            item=item,
            user=user,
            item_refs=_tower_refs(maml.params, _ITEM_PREFIX),
            user_refs=_tower_refs(maml.params, _USER_PREFIX),
        )

    # -- adaptation -----------------------------------------------------
    def adapt_user(self, task: "PreferenceTask | None"):
        """Fine-tune the meta-initialization on one user's support set.

        This is the expensive per-user step of meta-testing (Sec. IV-C);
        the serving layer caches its result so repeat requests skip it.
        """
        self._require_maml()
        if task is None or task.n_support == 0 or self._finetune_steps == 0:
            return None
        return self.adapt_users([task])[0]

    def adapt_users(self, tasks):
        """Fine-tune a whole batch of users in one batched inner loop."""
        maml = self._require_maml()
        content = self._packed_content()
        return adapt_task_states(
            maml, content.user, content.item, tasks, self._finetune_steps
        )

    def meta_refresh(self, tasks, meta_lr: float = 0.1, steps: int | None = None):
        """Reptile-refresh the meta-initialization from observed tasks.

        If the refresh rewrote any tower parameter (full-adaptation
        configs), the baked tables are dropped and rebaked on next use;
        decision-only refreshes leave them valid — the identity guard
        proves nothing in them changed.
        """
        maml = self._require_maml()
        self._stream_corpus, info = stream_refresh(
            maml,
            self._packed_content(),
            tasks,
            corpus=self._stream_corpus,
            meta_lr=meta_lr,
            steps=self._finetune_steps if steps is None else steps,
        )
        tables = self._tables
        if tables is not None and not (
            tables.item_current(maml.params) and tables.user_current(maml.params)
        ):
            self.invalidate_embedding_tables()
        return info

    # -- scoring --------------------------------------------------------
    def score_with_state(
        self,
        state,
        instance: "EvalInstance",
        task: "PreferenceTask | None" = None,
    ) -> np.ndarray:
        maml = self._require_maml()
        content = self._packed_content()
        params = state if state is not None else maml.params
        candidates = instance.candidates
        # (1, C) user row: embedded live in both paths (a single-row
        # product is GEMV-kernelled and must not be served from the baked
        # user table), then broadcast across the candidates.
        user_row = content.user[instance.user_row][None, :]
        tables = self._scoring_tables()
        if candidates.size >= 2 and tables.item_current(params):
            return maml.model.forward_from_item_embeddings(
                params, user_row, tables.item[candidates]
            )
        return maml.predict(user_row, content.item[candidates], params=params)

    def score_with_state_batch(self, states, instances) -> list[np.ndarray]:
        maml = self._require_maml()
        content = self._packed_content()
        return batched_candidate_scores(
            maml,
            content.user,
            content.item,
            states,
            instances,
            tables=self._scoring_tables(),
        )

    def score(
        self, task: "PreferenceTask | None", instance: "EvalInstance"
    ) -> np.ndarray:
        return self.score_with_state(self.adapt_user(task), instance)

    def score_batch(self, tasks, instances) -> list[np.ndarray]:
        """Adapt every evaluated user in one batched inner loop, then score."""
        if len(tasks) != len(instances):
            raise ValueError("tasks and instances must align")
        return self.score_with_state_batch(self.adapt_users(tasks), instances)

    # -- persistence ----------------------------------------------------
    def state_dict(self) -> Params:
        return dict(self._require_maml().params)

    def load_state_dict(self, state: Params) -> None:
        model = self._build_model(self.serving.user_content.shape[1])
        self.maml = MAML(model, self._maml_config, seed=self.seed)
        self.maml.params = {
            name: np.asarray(value) for name, value in state.items()
        }
        self._tables = None
