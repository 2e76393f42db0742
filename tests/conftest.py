import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run, so the suite stays
# deterministic; no example database is written.
settings.register_profile("polykernel", derandomize=True, database=None,
                          deadline=None, max_examples=30)
# The bit-for-bit parity tests also run under a deeper profile in CI:
# pytest --hypothesis-profile=polykernel-deep
settings.register_profile("polykernel-deep", settings.get_profile("polykernel"),
                          max_examples=300)
settings.load_profile("polykernel")
