"""Serial-engine reference rows, kept as per-cell digests.

``reference.json`` maps each cell key (``instance|stencil|mapper``) to
the SHA-256 prefix of that cell's ``ResultSet.to_rows()`` entry,
serialised canonically.  A benchmark row is correct when its digest
equals the reference's, so rows must be byte-identical to the serial
engine's on every tier.

Sections: ``paper`` (the Figure 8 set x ``nearest_neighbor`` x seven
mappers, plus the stencil program), ``structured`` (Figure 8 set x three
families x six mappers, torus-scored), ``small`` (the small-job pool)
and ``graph`` (the generated graph, per seed).  Only the graph cell
depends on the seed; its digest is committed for the default seed and
computed by the benchmark for any other seed.

Regenerate (serial engine, about half a minute)::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

PATH = Path(__file__).resolve().parent / "reference.json"


def row_key(row: dict) -> str:
    return f"{row['instance']}|{row['stencil']}|{row['mapper']}"


def row_digest(row: dict) -> str:
    text = json.dumps(row, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


class Reference:
    """The committed digests, plus any computed during a run."""

    def __init__(self, sections: dict | None = None):
        self.sections: dict = (
            json.loads(PATH.read_text()) if sections is None else sections
        )

    def digest(self, section: str, key: str, seed: int | None = None) -> str | None:
        table = self.sections.get(section, {})
        if section == "graph":
            table = table.get(str(seed), {})
        return table.get(key)

    def add(self, section: str, rows: list[dict], seed: int | None = None) -> None:
        table = self.sections.setdefault(section, {})
        if section == "graph":
            table = table.setdefault(str(seed), {})
        for row in rows:
            table[row_key(row)] = row_digest(row)


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    import repro
    from perfbench import workloads as w

    sections: dict = {"paper": {}, "structured": {}, "small": {}, "graph": {}}
    ref = Reference(sections)

    def serial(spec):
        with repro.EvaluationEngine(max_workers=1) as engine:
            return repro.run(spec, backend=engine).to_rows()

    instances = w.paper_instances()
    ref.add("paper", serial(w.paper_spec(instances)))
    ref.add("paper", serial(w.program_spec()))
    for family in repro.sweep.STENCIL_FAMILIES:
        ref.add("structured", serial(w.structured_spec(instances, family)))
    ref.add("small", serial(w.small_spec(w.small_pool())))
    ref.add("graph", serial(w.graph_spec(w.DEFAULT_SEED)), w.DEFAULT_SEED)
    PATH.write_text(json.dumps(sections, indent=0, sort_keys=True) + "\n")
    counts = {name: len(table) for name, table in sections.items()}
    print(f"wrote {PATH.name}: {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
