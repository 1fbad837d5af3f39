"""Shared test settings: one derandomized hypothesis profile for the suite."""

from hypothesis import settings

# a fixed example sequence keeps tier-1 deterministic; no example database
settings.register_profile("nodal", derandomize=True, database=None, deadline=None,
                          max_examples=40)
settings.load_profile("nodal")
