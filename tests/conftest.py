"""Test-wide settings: Hypothesis runs a fixed, bounded set of examples, so
property tests are deterministic and cheap."""

from hypothesis import settings

settings.register_profile("rankflow", derandomize=True, deadline=None, max_examples=40)
settings.load_profile("rankflow")
