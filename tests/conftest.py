"""Suite-wide settings.

Hypothesis draws its examples from a fixed seed and has no per-example
deadline, so every run of the suite checks the same cases and a slow
machine cannot fail a test.
"""

from hypothesis import settings

settings.register_profile("cylq", derandomize=True, deadline=None)
settings.load_profile("cylq")
