"""Shared test settings: one derandomized Hypothesis profile, so every run
draws the same examples and the property tests cost the same each time."""

from hypothesis import settings

settings.register_profile("spinchain", derandomize=True, database=None, deadline=None,
                          max_examples=100, print_blob=True)
settings.load_profile("spinchain")
