"""Suite-wide settings.

Hypothesis draws its examples from a fixed seed and has no per-example
deadline, so every run of the suite checks the same cases and a slow
machine cannot fail a test.  The ``ci`` profile, chosen with
``--hypothesis-profile=ci``, keeps those settings and draws 1000 examples
per test.
"""

from hypothesis import settings

settings.register_profile("cylq", derandomize=True, deadline=None)
settings.register_profile("ci", settings.get_profile("cylq"), max_examples=1000)
settings.load_profile("cylq")
