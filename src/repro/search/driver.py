"""The successive-halving racing loop behind :func:`run_search`.

One consumer thread per candidate streams that candidate's sweep
(`run_stream(..., indexed=True)`) into shared per-instance tallies; the
driver thread waits until every surviving candidate has completed the
current rung's deterministic instance prefix, ranks the survivors on
the objective total over that prefix, and stops the dominated ones.  A
stopped candidate's thread closes its stream; on the service backend
that cancels the candidate's job through the per-job ``CANCEL`` path,
which withdraws the job's still-queued shards.  Whether any are still
queued depends on dispatch order, not on the race: the coordinator
serves one tenant's jobs first in, first out, so with every candidate
submitted under one tenant an eliminated candidate's shards may all
have been dispatched before the first rung ranks, and the race then
evaluates as many cells as the exhaustive sweep.
:attr:`SearchResult.cells_evaluated <repro.search.SearchResult>`
reports what actually ran.

Determinism: rung rankings read only rows from seeded instance
prefixes, and rung scores are recomputed from the stored rows in cell
order at ranking time (never accumulated in arrival order), so the same
spec and seed produce the same winner and audit trail on any backend,
regardless of shard timing.
"""

from __future__ import annotations

import math
import threading
import time
import random

from ..exceptions import SearchError
from ..sweep import ResultSet, run_stream
from .spec import CandidateAudit, SearchResult, SearchSpec

__all__ = ["run_search"]

# Driver poll interval while waiting for rung prefixes (also bounds how
# late a budget expiry is noticed).
_WAIT_TICK = 0.05


class _CandidateState:
    """Shared mutable state of one racing candidate (guard: the driver's
    condition variable)."""

    def __init__(self, index, name, spec, per_instance, n_instances):
        self.index = index  # position in the spec's candidate order (tie-break)
        self.name = name
        self.spec = spec  # single-mapper SweepSpec, instances in shuffled order
        self.per_instance = per_instance
        self.done_by_pos = [0] * n_instances  # rows landed per shuffled position
        self.rows_by_index = {}  # candidate-spec cell index -> SweepRow
        self.cells = 0
        self.stop = threading.Event()
        self.finished = False  # stream exhausted or thread exited
        self.error = None
        self.thread = None
        self.audit = CandidateAudit(name=name, mapper=name)

    def prefix_done(self, k: int) -> bool:
        """All cells of the first *k* shuffled instances have landed."""
        return all(
            self.done_by_pos[pos] >= self.per_instance for pos in range(k)
        )

    def prefix_score(self, k: int, objective: str, minimize: bool) -> float:
        """Objective total over the first *k* instances, in cell order.

        Failed cells and missing objective columns score ``+inf``
        (worst); with ``minimize=False`` values are negated so smaller
        is always better internally.
        """
        total = 0.0
        for index in range(k * self.per_instance):
            row = self.rows_by_index.get(index)
            value = row.get(objective) if row is not None and row.ok else None
            if value is None:
                return math.inf
            total += value if minimize else -value
        return total


def _consume(state: _CandidateState, backend, cond, counters) -> None:
    """Candidate thread body: stream rows into shared state until stopped."""
    stream = None
    try:
        stream = run_stream(state.spec, backend, indexed=True)
        for index, row in stream:
            with cond:
                state.rows_by_index[index] = row
                state.done_by_pos[index // state.per_instance] += 1
                state.cells += 1
                counters["cells"] += 1
                cond.notify_all()
            if state.stop.is_set():
                break
    except Exception as exc:  # noqa: BLE001 - surfaced via the audit trail
        with cond:
            state.error = f"{type(exc).__name__}: {exc}"
    finally:
        if stream is not None:
            try:
                # Early-cancels the candidate's remaining shards when the
                # loop above broke out (service backend: per-job CANCEL).
                stream.close()
            except Exception:
                pass
        with cond:
            state.finished = True
            cond.notify_all()


def _format_score(value: float, minimize: bool) -> str:
    if math.isinf(value):
        return "inf (failed cells)"
    shown = value if minimize else -value
    return f"{shown:g}"


def run_search(spec: SearchSpec, backend=None) -> SearchResult:
    """Race the spec's candidates and return the :class:`SearchResult`.

    *backend* is anything :func:`repro.sweep.run` accepts: ``None``
    (per-candidate private engines), a CLI spec string (resolved once
    per candidate, so ``"service:PORT"`` gives each candidate its own
    prioritised job), or a live :class:`~repro.engine.backends.Backend`
    — which is then shared by all candidate threads and must tolerate
    concurrent ``evaluate_stream`` calls (the service backend does:
    each running job holds a connection of its own; so does an
    :class:`~repro.engine.EvaluationEngine`, whose caches compute each
    entry once whichever thread asks first).

    Raises :class:`~repro.exceptions.SearchError` only when *no*
    candidate could be ranked at all (every stream failed, or the
    budget expired before the first rung completed anywhere).
    """
    start = time.monotonic()
    deadline = (
        None if spec.budget_seconds is None else start + spec.budget_seconds
    )
    n = len(spec.base.instances)
    order = list(range(n))
    random.Random(spec.seed).shuffle(order)
    shuffled_labels = tuple(spec.base.instances[i].label for i in order)
    rungs = spec.rungs()
    per_instance = spec.cells_per_instance

    cond = threading.Condition()
    counters = {"cells": 0}
    states = [
        _CandidateState(
            index,
            name,
            spec.base.subset(instances=shuffled_labels, mappers=[name]),
            per_instance,
            n,
        )
        for index, name in enumerate(spec.candidates)
    ]
    for state in states:
        state.thread = threading.Thread(
            target=_consume,
            args=(state, backend, cond, counters),
            name=f"repro-search-{state.name}",
            daemon=True,
        )
        state.thread.start()

    survivors = list(states)
    ranked_rung = -1
    budget_reason = None

    def rank(candidates, k, rung_index):
        """Sort *candidates* best-first on the rung prefix, audit scores."""
        scored = sorted(
            candidates,
            key=lambda s: (
                s.prefix_score(k, spec.objective, spec.minimize),
                s.index,
            ),
        )
        for state in scored:
            internal = state.prefix_score(k, spec.objective, spec.minimize)
            state.audit.scores[rung_index] = (
                internal if spec.minimize else -internal
            )
            state.audit.rung_reached = rung_index
            state.audit.instances_scored = k
        return scored

    with cond:
        for rung_index, k in enumerate(rungs):
            # Wait for every survivor to land the rung's instance prefix.
            while True:
                for state in list(survivors):
                    if state.error is not None or (
                        state.finished and not state.prefix_done(k)
                    ):
                        survivors.remove(state)
                        state.audit.status = "error"
                        state.audit.reason = (
                            state.error
                            or f"stream ended before rung {rung_index} "
                            f"({k} instance(s)) completed"
                        )
                if not survivors:
                    raise SearchError(
                        "every candidate failed before a ranking: "
                        + "; ".join(
                            f"{s.name}: {s.audit.reason}" for s in states
                        )
                    )
                if all(state.prefix_done(k) for state in survivors):
                    break
                now = time.monotonic()
                if deadline is not None and now >= deadline:
                    budget_reason = (
                        f"wall-clock budget ({spec.budget_seconds:g}s) "
                        f"expired during rung {rung_index}"
                    )
                    break
                if (
                    spec.max_cells is not None
                    and counters["cells"] >= spec.max_cells
                ):
                    budget_reason = (
                        f"cell budget ({spec.max_cells}) exhausted during "
                        f"rung {rung_index}"
                    )
                    break
                cond.wait(_WAIT_TICK)
            if budget_reason is not None:
                break
            survivors = rank(survivors, k, rung_index)
            ranked_rung = rung_index
            if rung_index == len(rungs) - 1:
                break
            keep = max(1, math.ceil(len(survivors) / spec.eta))
            if keep >= len(survivors):
                continue
            losers = survivors[keep:]
            leader = survivors[0]
            leader_score = leader.prefix_score(
                k, spec.objective, spec.minimize
            )
            ranked = len(survivors)
            survivors = survivors[:keep]
            for position, loser in enumerate(losers, start=keep + 1):
                loser_score = loser.prefix_score(
                    k, spec.objective, spec.minimize
                )
                loser.stop.set()
                loser.audit.status = "eliminated"
                loser.audit.reason = (
                    f"dominated at rung {rung_index} ({k} instance(s)): "
                    f"{spec.objective} "
                    f"{_format_score(loser_score, spec.minimize)} vs leader "
                    f"{leader.name} {_format_score(leader_score, spec.minimize)} "
                    f"(rank {position}/{ranked})"
                )

        if budget_reason is not None:
            # Finalize on the deepest rung prefix the rankable survivors
            # share; survivors that never completed even the first rung
            # cannot be compared fairly and are set aside.  This stays
            # deterministic for a deterministic cut point (e.g. a cell
            # budget on a serial backend).
            def landed_prefix(state):
                return next(
                    (
                        pos
                        for pos in range(n)
                        if state.done_by_pos[pos] < per_instance
                    ),
                    n,
                )

            rankable = [
                state for state in survivors if landed_prefix(state) >= rungs[0]
            ]
            if rankable:
                common = min(landed_prefix(state) for state in rankable)
                final_rung = max(
                    index
                    for index, size in enumerate(rungs)
                    if size <= common
                )
                set_aside = [s for s in survivors if s not in rankable]
                survivors = rank(rankable, rungs[final_rung], final_rung)
                ranked_rung = final_rung
                survivors.extend(set_aside)
            elif ranked_rung < 0:
                raise SearchError(
                    f"{budget_reason} before any candidate completed the "
                    f"first rung ({rungs[0]} instance(s))"
                )
            # else: keep the order of the last completed ranking.
            for state in survivors[1:]:
                state.audit.status = "budget"
                state.audit.reason = budget_reason
            survivors = survivors[:1]

        winner = survivors[0]
        winner.audit.status = "winner"
        if winner.audit.reason is None:
            winner.audit.reason = (
                budget_reason
                if budget_reason is not None
                else f"best {spec.objective} over all {n} instance(s)"
            )
        for state in states:
            if state.audit.status == "racing":  # final-rung survivors
                state.audit.status = "finished"
                state.audit.reason = (
                    f"outscored by {winner.name} at the final rung"
                )
            state.stop.set()
            state.audit.cells_evaluated = state.cells

        # Winner rows, reassembled into the base spec's cell order so a
        # complete race is byte-identical to the exhaustive sweep's
        # winner slice.
        inverse = [0] * n
        for position, original in enumerate(order):
            inverse[original] = position
        winner_rows = []
        for original in range(n):
            base = inverse[original] * per_instance
            for offset in range(per_instance):
                row = winner.rows_by_index.get(base + offset)
                if row is not None:
                    winner_rows.append(row)
        complete = (
            budget_reason is None and len(winner_rows) == n * per_instance
        )
        total_cells = counters["cells"]

    for state in states:
        state.thread.join(timeout=10.0)
    with cond:
        # Late rows from threads that were still draining when the race
        # was decided still count as dispatched work.
        total_cells = counters["cells"]
        for state in states:
            state.audit.cells_evaluated = state.cells

    rows = ResultSet(winner_rows)
    return SearchResult(
        winner=winner.name,
        objective=spec.objective,
        minimize=spec.minimize,
        seed=spec.seed,
        eta=spec.eta,
        rungs=rungs,
        instance_order=shuffled_labels,
        candidates=[state.audit for state in states],
        winner_rows=rows,
        best_row=rows.best(spec.objective, minimize=spec.minimize),
        cells_evaluated=total_cells,
        exhaustive_cells=spec.exhaustive_cells,
        elapsed=time.monotonic() - start,
        complete=complete,
    )
