"""Portfolio mapper search: race candidates, keep the winner.

The paper evaluates a fixed set of mappers offline; at production scale
the operative question is *"which mapping is best for this instance set
under a time budget?"*.  This package answers it with a
successive-halving racing loop over mapper/parameter candidates:

* a :class:`SearchSpec` names the instance set (a
  :class:`~repro.sweep.SweepSpec` axis cross-product) and the candidate
  mappers, plus the racing knobs — objective column, halving factor
  ``eta``, deterministic ``seed``, wall-clock and cell budgets;
* :func:`run_search` submits every candidate's full sweep up front (on
  the service tier: one prioritised job per candidate), consumes the
  result streams incrementally, ranks candidates on deterministic
  instance prefixes (*rungs*), and **early-cancels** the dominated ones
  — a killed candidate's still-queued shards are withdrawn through the
  per-job ``CANCEL`` path; how many are still queued depends on
  dispatch order, and ``SearchResult.cells_evaluated`` reports what
  actually ran;
* the :class:`SearchResult` carries the winner's full rows (reassembled
  into exhaustive sweep order, byte-identical to what the exhaustive
  sweep would report for that mapper) and a complete audit trail of why
  every other candidate was killed.

The racing decisions only ever read cells from seeded, deterministic
instance prefixes, so the same spec and seed produce the same winner
and the same audit trail regardless of backend timing.

>>> import repro
>>> spec = repro.SearchSpec([4, 8], candidates=("blocked", "hyperplane"))
>>> result = repro.run_search(spec)          # doctest: +SKIP
>>> result.winner                            # doctest: +SKIP
'hyperplane'
"""

from .spec import CandidateAudit, SearchResult, SearchSpec
from .driver import run_search

__all__ = ["SearchSpec", "SearchResult", "CandidateAudit", "run_search"]
