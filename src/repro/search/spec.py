"""Search specifications, audit records and results.

A :class:`SearchSpec` wraps a base :class:`~repro.sweep.SweepSpec`
(instances x allocations x stencils x *candidate mappers*) with the
racing knobs; :func:`~repro.search.run_search` consumes it and returns
a :class:`SearchResult` whose :class:`CandidateAudit` list records, for
every candidate, the rung it reached, the scores it was ranked on, and
exactly why it was killed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..sweep import (
    DEFAULT_MAPPER_NAMES,
    ResultSet,
    SweepRow,
    SweepSpec,
    _json_safe,
)

__all__ = ["SearchSpec", "CandidateAudit", "SearchResult"]


class SearchSpec:
    """A declarative portfolio search over mapper candidates.

    Parameters
    ----------
    instances:
        The instance axis, as for :class:`~repro.sweep.SweepSpec`.
    candidates:
        The mapper candidates to race — registry names, configured
        :class:`~repro.core.Mapper` instances, or ``(name, mapper)``
        pairs.  Defaults to the paper's seven algorithms.
    stencils, allocations, metrics, tags:
        Forwarded to the base :class:`~repro.sweep.SweepSpec`.
    objective:
        Result column to minimize (or maximize): a row attribute such
        as ``"jsum"``/``"jmax"`` or any metric column.  Failed cells
        score worst.
    minimize:
        Direction of the objective (default: smaller is better).
    eta:
        Successive-halving factor: after each rung only the best
        ``ceil(survivors / eta)`` candidates continue.
    min_instances:
        Instance-prefix length of the first rung; subsequent rungs
        grow geometrically by *eta* until the full instance set.
    seed:
        Seed of the instance-order shuffle.  The racing decisions only
        read deterministic instance prefixes of that order, so the same
        spec and seed always crown the same winner.
    budget_seconds, max_cells:
        Optional wall-clock / evaluated-cell budgets; the race then
        ends on the last ranked rung instead of racing to the end.
        ``max_cells`` is checked before each rung is submitted, so a
        race never evaluates more cells (and one whose first rung alone
        exceeds it raises :class:`~repro.exceptions.SearchError`);
        ``budget_seconds`` is checked as each row lands, and the rows
        of the rung it cuts are evaluated but rank nobody.
    """

    def __init__(
        self,
        instances: Iterable,
        candidates: Iterable | Mapping[str, Any] = DEFAULT_MAPPER_NAMES,
        *,
        stencils: Iterable = ("nearest_neighbor",),
        allocations: Iterable | None = None,
        metrics: Iterable = (),
        tags: Mapping[str, Any] | None = None,
        objective: str = "jsum",
        minimize: bool = True,
        eta: int = 2,
        min_instances: int = 1,
        seed: int = 0,
        budget_seconds: float | None = None,
        max_cells: int | None = None,
    ):
        if not objective or not isinstance(objective, str):
            raise ValueError(f"objective must be a column name, got {objective!r}")
        if int(eta) < 2:
            raise ValueError(f"eta must be >= 2, got {eta}")
        if int(min_instances) < 1:
            raise ValueError(f"min_instances must be >= 1, got {min_instances}")
        if budget_seconds is not None and budget_seconds <= 0:
            raise ValueError(f"budget_seconds must be > 0, got {budget_seconds}")
        if max_cells is not None and int(max_cells) < 1:
            raise ValueError(f"max_cells must be >= 1, got {max_cells}")
        self.base = SweepSpec(
            instances,
            stencils=stencils,
            mappers=candidates,
            allocations=allocations,
            metrics=metrics,
            tags=tags,
        )
        self.candidates: tuple[str, ...] = tuple(
            name for name, _ in self.base.mappers
        )
        self.objective = objective
        self.minimize = bool(minimize)
        self.eta = int(eta)
        self.min_instances = int(min_instances)
        self.seed = int(seed)
        self.budget_seconds = budget_seconds
        self.max_cells = None if max_cells is None else int(max_cells)

    # ------------------------------------------------------------------
    def rungs(self) -> tuple[int, ...]:
        """Instance-prefix lengths of the racing rungs.

        Starts at ``min_instances``, grows by *eta* per rung, and always
        ends at the full instance count, so the final ranking covers the
        whole set.
        """
        n = len(self.base.instances)
        sizes = [min(self.min_instances, n)]
        while sizes[-1] < n:
            sizes.append(min(n, sizes[-1] * self.eta))
        return tuple(sizes)

    @property
    def cells_per_instance(self) -> int:
        """Cells one candidate evaluates per instance (stencils x allocs)."""
        allocs = len(self.base.allocations) if self.base.allocations else 1
        return len(self.base.stencils) * allocs

    @property
    def exhaustive_cells(self) -> int:
        """Cell count of the equivalent exhaustive sweep (all candidates)."""
        return (
            len(self.base.instances)
            * self.cells_per_instance
            * len(self.candidates)
        )

    def __repr__(self) -> str:
        return (
            f"SearchSpec({len(self.base.instances)} instance(s), "
            f"{len(self.candidates)} candidate(s), objective="
            f"{self.objective!r}, eta={self.eta}, seed={self.seed})"
        )


@dataclass
class CandidateAudit:
    """Why one candidate survived or died, for the result's audit trail.

    ``status`` is one of ``"winner"``, ``"finished"`` (ranked at the
    final rung but outscored), ``"eliminated"`` (dominated at an
    intermediate rung, so it evaluated no later instance), ``"budget"``
    (still racing when the budget expired) or ``"error"`` (an unknown
    mapper, or its rung's evaluation stream died).  ``scores`` maps rung
    index to the objective total over that rung's instance prefix (in
    the caller's orientation — larger is better only when
    ``minimize=False``); ``rung_reached`` is the deepest rung the
    candidate was ranked at, ``-1`` if none.

    Every field, ``cells_evaluated`` included, is the same for a given
    spec and seed on every backend; only a wall-clock budget makes the
    cut point depend on timing.
    """

    name: str
    mapper: str
    status: str = "racing"
    rung_reached: int = -1
    instances_scored: int = 0
    cells_evaluated: int = 0
    scores: dict[int, float] = field(default_factory=dict)
    reason: str | None = None

    def to_record(self) -> dict[str, Any]:
        """Flat JSON-safe record (rung keys stringified, inf tagged)."""
        return {
            "name": self.name,
            "mapper": self.mapper,
            "status": self.status,
            "rung_reached": self.rung_reached,
            "instances_scored": self.instances_scored,
            "cells_evaluated": self.cells_evaluated,
            "scores": {str(k): _json_safe(v) for k, v in self.scores.items()},
            "reason": self.reason,
        }


@dataclass
class SearchResult:
    """The outcome of one portfolio search.

    ``winner_rows`` holds the winning candidate's rows **in the base
    spec's deterministic cell order** — for a complete race they are
    byte-identical (through :meth:`~repro.sweep.ResultSet.to_json`) to
    the winner's slice of the exhaustive sweep.  ``candidates`` is the
    full audit trail; ``complete`` is ``False`` when a budget cut the
    race short (the winner is then the leader of the deepest
    fully-ranked rung and its rows may be partial).
    """

    winner: str
    objective: str
    minimize: bool
    seed: int
    eta: int
    rungs: tuple[int, ...]
    instance_order: tuple[str, ...]
    candidates: list[CandidateAudit]
    winner_rows: ResultSet
    best_row: SweepRow | None
    cells_evaluated: int
    exhaustive_cells: int
    elapsed: float
    complete: bool

    def audit(self, name: str) -> CandidateAudit:
        """The audit record of candidate *name*."""
        for record in self.candidates:
            if record.name == name:
                return record
        raise KeyError(name)

    def to_records(self) -> list[dict[str, Any]]:
        """One flat record per candidate (CLI table form), winner first."""
        order = {"winner": 0, "finished": 1, "budget": 2, "eliminated": 3, "error": 4}
        records = []
        for audit in sorted(
            self.candidates,
            key=lambda a: (order.get(a.status, 5), -a.rung_reached, a.name),
        ):
            final = audit.scores.get(audit.rung_reached)
            records.append(
                {
                    "candidate": audit.name,
                    "status": audit.status,
                    "rung": audit.rung_reached,
                    "instances": audit.instances_scored,
                    "cells": audit.cells_evaluated,
                    "score": final,
                    "reason": audit.reason or "",
                }
            )
        return records

    def to_json(self, path=None, *, indent: int | None = 2) -> str:
        """JSON document (schema ``repro.search/v1``) with the full
        audit trail and the winner's rows embedded as a
        ``repro.sweep/v1`` row list."""
        document = {
            "schema": "repro.search/v1",
            "winner": self.winner,
            "objective": self.objective,
            "minimize": self.minimize,
            "seed": self.seed,
            "eta": self.eta,
            "rungs": list(self.rungs),
            "instance_order": list(self.instance_order),
            "complete": self.complete,
            "elapsed": self.elapsed,
            "cells_evaluated": self.cells_evaluated,
            "exhaustive_cells": self.exhaustive_cells,
            "candidates": [audit.to_record() for audit in self.candidates],
            "best_row": (
                None
                if self.best_row is None
                else ResultSet([self.best_row]).to_rows()[0]
            ),
            "winner_rows": self.winner_rows.to_rows(),
        }
        text = json.dumps(document, indent=indent, allow_nan=False)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        return text
