"""Suite-wide settings: hypothesis draws the same examples on every run and
keeps no example database, so a run is repeatable and leaves no files in the
checkout."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("fusedrive", derandomize=True, database=None, deadline=None)
settings.load_profile("fusedrive")

# Hypothesis also caches the constants it reads from the source under test;
# that cache goes to a temporary directory, removed at exit.
_STORAGE = tempfile.TemporaryDirectory(prefix="fusedrive-hypothesis-")
set_hypothesis_home_dir(_STORAGE.name)
