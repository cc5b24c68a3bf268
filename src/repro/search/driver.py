"""The successive-halving racing loop behind :func:`run_search`.

The race runs in the caller's thread as one job per rung.  Rung *r*
evaluates the survivors of rung *r - 1* on the instances it adds to the
seeded order (``order[k[r-1]:k[r]]``); the driver ranks the survivors
on their objective total over the rung's whole instance prefix, drops
the dominated ones, and only then submits the next rung.  An eliminated
candidate never evaluates a later instance, so the cells a race
evaluates are fixed by the spec and seed on every backend, and both
budgets are checks the driver makes itself: ``max_cells`` before each
rung is submitted, ``budget_seconds`` as each row lands (expiry closes
the running rung's stream, which cancels its job on the service
backend).

Determinism: rung scores are recomputed from the stored rows in cell
order at ranking time (never accumulated in arrival order), so the same
spec and seed produce the same winner, audit trail and cell counts on
any backend, regardless of shard timing.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import closing

from ..engine.registry import resolve_mapper
from ..exceptions import SearchError
from ..sweep import ResultSet, _acquire_backend, run_stream
from .spec import CandidateAudit, SearchResult, SearchSpec

__all__ = ["run_search"]


class _CandidateState:
    """The rows and audit record of one racing candidate."""

    def __init__(self, index, name, per_instance):
        self.index = index  # position in the spec's candidate order (tie-break)
        self.name = name
        self.per_instance = per_instance
        # cell index of the candidate's sweep over the shuffled instance
        # order -> SweepRow
        self.rows_by_index = {}
        self.cells = 0
        self.audit = CandidateAudit(name=name, mapper=name)

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


def _format_score(value: float, minimize: bool) -> str:
    if math.isinf(value):
        return "inf (failed cells)"
    shown = value if minimize else -value
    return f"{shown:g}"


def _every_candidate_failed(states) -> SearchError:
    return SearchError(
        "every candidate failed before a ranking: "
        + "; ".join(f"{s.name}: {s.audit.reason}" for s in states)
    )


def run_search(spec: SearchSpec, backend=None) -> SearchResult:
    """Race the spec's candidates and return the :class:`SearchResult`.

    *backend* is anything :func:`repro.sweep.run` accepts: ``None`` (one
    private engine for the whole race), a CLI spec string (resolved once
    per race, so ``"process:2"`` is one pool and ``"service:PORT"`` one
    client), or a live :class:`~repro.engine.backends.Backend`, which
    stays open for the caller.  Each rung is one ``evaluate_stream``
    call on it.

    Raises :class:`~repro.exceptions.SearchError` when no candidate can
    be ranked: every candidate names an unknown mapper, a rung's stream
    failed, or a budget ended the race before the first rung was ranked.
    """
    start = time.monotonic()
    deadline = None if spec.budget_seconds is None else start + spec.budget_seconds
    n = len(spec.base.instances)
    order = list(range(n))
    random.Random(spec.seed).shuffle(order)
    shuffled_labels = tuple(spec.base.instances[i].label for i in order)
    rungs = spec.rungs()
    per_instance = spec.cells_per_instance

    states = [
        _CandidateState(index, name, per_instance)
        for index, name in enumerate(spec.candidates)
    ]
    survivors = []
    for state, (_, mapper) in zip(states, spec.base.mappers):
        # The engine raises an unknown name's KeyError for the whole
        # job, which would fail the other candidates of its rung.
        try:
            resolve_mapper(mapper)
        except KeyError as exc:
            state.audit.status = "error"
            state.audit.reason = f"{type(exc).__name__}: {exc}"
        else:
            survivors.append(state)
    if not survivors:
        raise _every_candidate_failed(states)

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
            state.audit.scores[rung_index] = internal if spec.minimize else -internal
            state.audit.rung_reached = rung_index
            state.audit.instances_scored = k
        return scored

    total_cells = 0
    ranked_rung = -1
    budget_reason = None
    backend, owned = _acquire_backend(backend)
    try:
        prefix = 0
        for rung_index, k in enumerate(rungs):
            width = len(survivors)
            rung_cells = width * (k - prefix) * per_instance
            if spec.max_cells is not None and total_cells + rung_cells > spec.max_cells:
                budget_reason = (
                    f"cell budget ({spec.max_cells}) exhausted during "
                    f"rung {rung_index}"
                )
                break
            rung = spec.base.subset(
                instances=shuffled_labels[prefix:k],
                mappers=[state.name for state in survivors],
            )
            # The mapper is the innermost axis of the rung's cells, so rung
            # cell i is cell first + i // width of survivor i % width.
            first = prefix * per_instance
            try:
                with closing(run_stream(rung, backend, indexed=True)) as stream:
                    for index, row in stream:
                        state = survivors[index % width]
                        state.rows_by_index[first + index // width] = row
                        state.cells += 1
                        total_cells += 1
                        if deadline is not None and time.monotonic() >= deadline:
                            budget_reason = (
                                f"wall-clock budget ({spec.budget_seconds:g}s) "
                                f"expired during rung {rung_index}"
                            )
                            break
            except Exception as exc:  # noqa: BLE001 - surfaced via the audit trail
                for state in survivors:
                    state.audit.status = "error"
                    state.audit.reason = f"{type(exc).__name__}: {exc}"
                raise _every_candidate_failed(states) from exc
            if budget_reason is not None:
                break
            survivors = rank(survivors, k, rung_index)
            ranked_rung = rung_index
            prefix = k
            keep = max(1, math.ceil(len(survivors) / spec.eta))
            if rung_index == len(rungs) - 1 or keep >= len(survivors):
                continue
            losers = survivors[keep:]
            leader = survivors[0]
            leader_score = leader.prefix_score(k, spec.objective, spec.minimize)
            ranked = len(survivors)
            survivors = survivors[:keep]
            for position, loser in enumerate(losers, start=keep + 1):
                loser_score = loser.prefix_score(k, spec.objective, spec.minimize)
                loser.audit.status = "eliminated"
                loser.audit.reason = (
                    f"dominated at rung {rung_index} ({k} instance(s)): "
                    f"{spec.objective} "
                    f"{_format_score(loser_score, spec.minimize)} vs leader "
                    f"{leader.name} {_format_score(leader_score, spec.minimize)} "
                    f"(rank {position}/{ranked})"
                )
    finally:
        if owned is not None:
            owned.close()

    if budget_reason is not None:
        # The race ends on the last ranked rung; rows of the rung the
        # budget cut count as evaluated but rank nobody.
        if ranked_rung < 0:
            raise SearchError(
                f"{budget_reason} before any candidate completed the "
                f"first rung ({rungs[0]} instance(s))"
            )
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
            state.audit.reason = f"outscored by {winner.name} at the final rung"
        state.audit.cells_evaluated = state.cells

    # Winner rows, reassembled into the base spec's cell order so a
    # complete race is byte-identical to the exhaustive sweep's winner
    # slice.
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
    complete = budget_reason is None and len(winner_rows) == n * per_instance

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
