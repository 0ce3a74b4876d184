"""Test-suite settings.

Hypothesis draws its examples from a seed derived from each test, so two
runs of one commit test the same inputs. For a random search, pass
``--hypothesis-profile=default``, optionally with ``--hypothesis-seed=N``.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
