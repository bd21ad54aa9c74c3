"""Hypothesis runs derandomized, without deadlines and without an example
database, so that every run of the suite draws the same examples and slow
machines do not flake."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, deadline=None, database=None)
settings.load_profile("reproducible")
