"""Suite-wide settings: hypothesis draws the same examples on every run and
keeps no example database, so a run is repeatable and leaves no files in the
checkout."""

import os
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("fusedrive", derandomize=True, database=None, deadline=None)
settings.load_profile("fusedrive")

# Hypothesis caches the character map that st.text() draws from (some 2 s to
# build) and the constants it reads from the source under test, keyed by that
# source's hash.  A cache holds what a fresh build gives, so the draws are the
# same either way; it is kept between runs, outside the checkout.
set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "fusedrive-hypothesis"))
