"""Settings shared by every test module."""

from hypothesis import settings

# Every property is derandomized, keeps no example database and has no deadline, so
# that a run repeats exactly and a slow machine fails no example by its clock.  Each
# property sets only its max_examples.
settings.register_profile("bitbandit", deadline=None, derandomize=True, database=None)
settings.load_profile("bitbandit")
