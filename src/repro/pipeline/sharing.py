"""Cross-detector computation sharing: plan-level common-subexpression
elimination over neighbor structures.

Without it, every neighbor-based detector in a plan (KNN, LOF, LoOP,
ABOD) builds its *own* KD-tree over the exact same (sub)space and runs
its *own* k-NN query — m structures and m full queries where one of
each would do. This module rewrites the plan's task list into a
two-wave dependency DAG:

1. **Derivation** (the ``share`` stage, between ``forecast`` and
   ``schedule``): each neighbor consumer contributes a *resource key*
   ``(space identity, metric)`` — KD-tree structure identity — plus its
   ``k``; keys with two or more consumers fold their ``k``s to
   ``max(k_i)`` (+1 slack at fit time for self-exclusion) and become
   one :class:`SharedQuery` producer.
2. **Producer wave** (:class:`ProducerWave`, run inside ``execute``):
   each producer builds the group's single KD-tree and answers one
   fused batched query at the shared width
   (:func:`repro.kernels.kdtree_query_maxk`). Producers are first-class
   scheduled tasks with their own cost forecasts
   (:func:`repro.scheduling.forecast_shared_query`) and task keys, so
   the adaptive scheduler arbitrates build-vs-score. Under the shm
   backend the parent publishes each ``(distance, index)`` result into
   the plan's arena as read-only :class:`SharedArrayHandle` pairs.
3. **Consumer wave** (:mod:`repro.pipeline.detector_wave`): every
   consuming detector's task binds its group's published pair and
   slices its own ``k_i`` prefix
   (:func:`repro.kernels.slice_neighbor_prefix`) — bitwise-identical to
   a private query by the canonical tie-order contract, with
   self-exclusion applied per consumer at slice time.

Sharing is restricted to consumers whose resolved engine is the
KD-tree: brute force's ``argpartition`` tie order depends on ``k``, so
its results are not prefix-sliceable (see
:mod:`repro.kernels.neighbors`). Space identity is object identity —
the projection stage hands unprojected models the *same* validated
array object, while JL-projected spaces are per-model distinct, so
per-space keying can never cross spaces.

Derivation consumes no randomness and runs in O(m): plans with sharing
replay bitwise-identically and non-neighbor pools pay nothing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.kernels.neighbors import shared_query_width
from repro.neighbors.api import choose_engine
from repro.neighbors.shared import build_shared_index, fused_neighbor_query
from repro.parallel import resolve_array
from repro.pipeline.wave import Wave
from repro.scheduling.cost import forecast_shared_query

__all__ = [
    "ProducerWave",
    "SharedQuery",
    "SharingPlan",
    "derive_fit_sharing",
    "derive_predict_sharing",
]


@dataclass
class SharedQuery:
    """One producer task: a KD-tree (re)used by a group of consumers.

    ``space_index`` points at the representative model's slot in the
    plan's space list (every consumer in the group holds the identical
    array object). ``index`` is the fitted shared
    :class:`~repro.neighbors.NearestNeighbors`: pre-set at predict
    time (the fit-time injected index), filled in by the producer wave
    at fit time.
    """

    space_index: int
    consumers: list[int]
    ks: list[int]
    width: int
    cover_self: bool
    n_index: int
    n_query: int
    n_features: int
    metric: str = "euclidean"
    index: object | None = None

    @property
    def result_bytes(self) -> int:
        """Bytes of the fused (distance, index) pair this query yields."""
        return int(self.n_query) * int(self.width) * (8 + 8)


@dataclass
class SharingPlan:
    """The derived rewrite: producers plus the consumer → group map."""

    kind: str
    queries: list[SharedQuery]
    consumer_of: dict[int, int] = field(default_factory=dict)
    n_tasks: int = 0

    @property
    def active(self) -> bool:
        return bool(self.queries)

    def summary(self) -> dict:
        """The dedup ledger the ``share`` stage reports (and the plan
        CLI prints): task/structure counts before vs after the rewrite
        and the bytes the producer wave will publish."""
        n_consumers = len(self.consumer_of)
        return {
            "n_tasks_before": self.n_tasks,
            "n_tasks_after": self.n_tasks + len(self.queries),
            "structures_before": n_consumers if self.queries else 0,
            "structures_built": len(self.queries),
            "queries_fused": n_consumers,
            "bytes_published": sum(q.result_bytes for q in self.queries),
        }


def _neighbor_spec(est, n_samples: int, n_features: int):
    """The (k, metric) a detector would query with, iff KD-tree-backed.

    Returns None for non-neighbor detectors, non-KD-tree engines (no
    prefix-slice contract) and ``k`` outside the fit-valid range (the
    detector's own validation raises on the unshared path, keeping
    error behaviour identical).
    """
    request = getattr(est, "_neighbor_request", None)
    if request is None:
        return None
    spec = request()
    k = int(spec["n_neighbors"])
    metric = spec["metric"]
    engine = spec["algorithm"]
    if engine == "auto":
        engine = choose_engine(n_samples, n_features, metric)
    if engine != "kd_tree" or metric != "euclidean":
        return None
    if not 1 <= k <= n_samples - 1:
        return None
    return k, metric


def _group_consumers(models, spaces, specs) -> list[SharedQuery]:
    """Fold per-consumer resource keys into producer queries.

    ``specs[i]`` is ``(k, metric, index_rows)`` or None. Groups of one
    are dropped: a single consumer's private build is already optimal.
    """
    groups: dict[tuple[int, str], list[int]] = {}
    for i, spec in enumerate(specs):
        if spec is None:
            continue
        _k, metric, _rows = spec
        groups.setdefault((id(spaces[i]), metric), []).append(i)
    queries = []
    for (_sid, metric), members in groups.items():
        if len(members) < 2:
            continue
        rep = members[0]
        ks = [specs[i][0] for i in members]
        queries.append(
            SharedQuery(
                space_index=rep,
                consumers=members,
                ks=ks,
                width=0,  # filled by the caller (fit/predict widths differ)
                cover_self=False,
                n_index=specs[rep][2],
                n_query=int(spaces[rep].shape[0]),
                n_features=int(spaces[rep].shape[1]),
                metric=metric,
            )
        )
    return queries


def derive_fit_sharing(models, spaces) -> SharingPlan:
    """Resource-key pass over an unfitted pool: who can share at fit.

    Fit-time queries are self-excluded, so the fused width carries one
    slack column (``max(k_i) + 1``) and consumers drop their own row at
    slice time.
    """
    specs = []
    for est, space in zip(models, spaces):
        n, d = space.shape
        spec = _neighbor_spec(est, n, d)
        specs.append(None if spec is None else (spec[0], spec[1], n))
    queries = _group_consumers(models, spaces, specs)
    plan = SharingPlan(kind="fit", queries=queries, n_tasks=len(models))
    for qid, query in enumerate(queries):
        query.cover_self = True
        query.width = shared_query_width(query.ks, query.n_index, cover_self=True)
        for i in query.consumers:
            plan.consumer_of[i] = qid
    return plan


def derive_predict_sharing(approximators, spaces, n_tasks: int) -> SharingPlan:
    """Resource-key pass over a fitted pool: who can share at predict.

    Consumers are the *passthrough* scorers (PSA-approximated models
    never run neighbor queries at predict) whose fitted index is the
    KD-tree engine. Grouping keys on ``(index identity, space
    identity)``: detectors that shared a fit-time build hold the same
    injected index object, so the fit-time groups re-form with zero
    stored metadata — and independently fitted indexes never alias.
    """
    specs: list = []
    index_of: dict[int, object] = {}
    for approx, space in zip(approximators, spaces):
        det = getattr(approx, "detector", approx)
        if getattr(approx, "approximated", False):
            specs.append(None)
            continue
        nn = getattr(det, "_nn", None)
        n, d = space.shape
        request = getattr(det, "_neighbor_request", None)
        if nn is None or request is None or getattr(nn, "_engine", None) != "kd_tree":
            specs.append(None)
            continue
        k = int(request()["n_neighbors"])
        if not 1 <= k <= nn._X.shape[0]:
            specs.append(None)
            continue
        specs.append((k, "euclidean", int(nn._X.shape[0])))
        index_of[len(specs) - 1] = nn

    # Group key = (index identity, space identity): share the fused
    # query only among consumers binding the same tree to the same rows.
    groups: dict[tuple[int, int], list[int]] = {}
    for i, spec in enumerate(specs):
        if spec is None:
            continue
        groups.setdefault((id(index_of[i]), id(spaces[i])), []).append(i)
    plan = SharingPlan(kind="predict", queries=[], n_tasks=n_tasks)
    for members in groups.values():
        if len(members) < 2:
            continue
        rep = members[0]
        ks = [specs[i][0] for i in members]
        query = SharedQuery(
            space_index=rep,
            consumers=members,
            ks=ks,
            width=shared_query_width(ks, specs[rep][2]),
            cover_self=False,
            n_index=specs[rep][2],
            n_query=int(spaces[rep].shape[0]),
            n_features=int(spaces[rep].shape[1]),
            index=index_of[rep],
        )
        qid = len(plan.queries)
        plan.queries.append(query)
        for i in members:
            plan.consumer_of[i] = qid
    return plan


# ----------------------------------------------------------------------
# The producer wave: task bodies (module-level: the process backends
# pickle them) and its description for the wave runner.
# ----------------------------------------------------------------------
def produce_fit_query(space, ks, metric: str):
    """Producer wave, fit plan: build the group's index, run the fused
    self-covering query. Returns ``(index, distances, indices)``."""
    X = resolve_array(space)
    nn = build_shared_index(X, metric=metric)
    dist, idx, _width = fused_neighbor_query(nn, X, ks, cover_self=True)
    return nn, dist, idx


def produce_predict_query(nn, space, ks):
    """Producer wave, predict plan: one fused query of the new rows
    against the fit-time shared index."""
    dist, idx, _width = fused_neighbor_query(nn, resolve_array(space), ks)
    return dist, idx


class ProducerWave(Wave):
    """A :class:`SharingPlan`'s producers as first-class scheduled tasks.

    One task per :class:`SharedQuery`, with its own analytic forecast
    (:func:`~repro.scheduling.forecast_shared_query`) and the stable
    keys ``('<kind>-share', qid)``, so the adaptive scheduler arbitrates
    shared builds against ordinary fit/score tasks on measured
    durations. :meth:`assemble` publishes each fused ``(distance,
    index)`` pair for the consumers — into ``arena`` as read-only
    handles when the plan has a shared-memory data plane (set it before
    the wave runs), as the in-memory arrays otherwise. Fit-plan
    producers also return the group's fitted index, kept on the query
    for post-fit injection.
    """

    def __init__(self, sharing: SharingPlan):
        self.sharing = sharing
        self.name = f"{sharing.kind}-share"
        self.arena = None
        self.published: list[tuple] = []

    @property
    def n_tasks(self) -> int:
        return len(self.sharing.queries)

    def task_keys(self) -> list:
        return [(self.name, qid) for qid in range(self.n_tasks)]

    def task_weights(self) -> np.ndarray:
        return np.array([float(q.n_query) for q in self.sharing.queries])

    def costs(self) -> np.ndarray:
        return np.array(
            [
                forecast_shared_query(q.n_index, q.n_query, q.n_features, q.width)
                for q in self.sharing.queries
            ]
        )

    def tasks(self, data) -> list:
        if self.sharing.kind == "fit":
            return [
                functools.partial(
                    produce_fit_query, data[q.space_index], tuple(q.ks), q.metric
                )
                for q in self.sharing.queries
            ]
        return [
            functools.partial(
                produce_predict_query, q.index, data[q.space_index], tuple(q.ks)
            )
            for q in self.sharing.queries
        ]

    def assemble(self, results) -> dict:
        self.published = []
        bytes_published = 0
        for query, out in zip(self.sharing.queries, results):
            if self.sharing.kind == "fit":
                query.index, dist, idx = out
            else:
                dist, idx = out
            bytes_published += dist.nbytes + idx.nbytes
            if self.arena is not None:
                dist = self.arena.share(dist, category="neighbors")
                idx = self.arena.share(idx, category="neighbors")
            self.published.append((dist, idx))
        return {"bytes_published": bytes_published}

    def consumer_pairs(self) -> dict[int, tuple]:
        """Model index → the published pair its group's producer left."""
        return {
            i: self.published[qid] for i, qid in self.sharing.consumer_of.items()
        }
