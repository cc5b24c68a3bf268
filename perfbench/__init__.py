"""End-to-end and per-layer benchmark of the mapping stack (see README.md)."""
