"""Dual-clock benchmark of the repro middleware (see NOTES.md)."""
