"""One hypothesis profile for every property test in the suite.

Runs are derandomized, so a property fails or passes the same way on every
run; there is no per-example deadline (the first example of a sketch test
pays for its Poisson tables); and no example database is written.  A test that
needs other than the default 100 examples sets ``max_examples`` itself.
"""

from hypothesis import settings

settings.register_profile("hsketch", derandomize=True, deadline=None, database=None)
settings.load_profile("hsketch")
