"""The built-in rule catalogue.  Importing this package registers every
rule with :mod:`repro.lint.engine` (see DESIGN.md §10 for the catalogue
and the invariant each rule guards)."""

from . import concurrency, determinism, meta, numeric, obs  # noqa: F401

__all__ = ["concurrency", "determinism", "meta", "numeric", "obs"]
