import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Derandomized and without an example database, so every run draws the same
# examples.  No deadline: the suite shares its host, and a slow example is
# not a failing one.
settings.register_profile("repeatable", derandomize=True, database=None, deadline=None)
settings.load_profile("repeatable")

# Hypothesis still caches the constants it reads from the source; keep that
# cache in a directory removed at exit instead of a .hypothesis/ in the tree.
_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_storage.name)
