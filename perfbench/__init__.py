"""Seeded benchmark of the sweep, edit and serve paths (see README.md)."""
