"""Portfolio mapper search: race candidates, keep the winner.

The paper evaluates a fixed set of mappers offline; at production scale
the operative question is *"which mapping is best for this instance set
under a time budget?"*.  This package answers it with a
successive-halving racing loop over mapper/parameter candidates:

* a :class:`SearchSpec` names the instance set (a
  :class:`~repro.sweep.SweepSpec` axis cross-product) and the candidate
  mappers, plus the racing knobs — objective column, halving factor
  ``eta``, deterministic ``seed``, wall-clock and cell budgets;
* :func:`run_search` submits one job per *rung* (the survivors times
  the instances that rung adds to a seeded order), ranks the survivors
  on the objective total over the rung's instance prefix, and drops the
  dominated ones before it submits the next rung — an eliminated
  candidate never evaluates a later instance, so
  ``SearchResult.cells_evaluated`` is exact for a spec and seed on every
  backend, and never exceeds ``max_cells``;
* the :class:`SearchResult` carries the winner's full rows (reassembled
  into exhaustive sweep order, byte-identical to what the exhaustive
  sweep would report for that mapper) and a complete audit trail of why
  every other candidate was killed.

The racing decisions only ever read cells from seeded, deterministic
instance prefixes, so the same spec and seed produce the same winner,
audit trail and cell counts regardless of backend timing.

>>> import repro
>>> spec = repro.SearchSpec([4, 8], candidates=("blocked", "hyperplane"))
>>> result = repro.run_search(spec)          # doctest: +SKIP
>>> result.winner                            # doctest: +SKIP
'hyperplane'
"""

from .spec import CandidateAudit, SearchResult, SearchSpec
from .driver import run_search

__all__ = ["SearchSpec", "SearchResult", "CandidateAudit", "run_search"]
