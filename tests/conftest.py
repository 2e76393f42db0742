import sys
from pathlib import Path

import pytest
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


@pytest.fixture(autouse=True)
def _cold_second_kind_cache():
    # the expansions' second-kind cache lives as long as the process; every
    # test starts from an empty one, so none reads factors another built
    from polykernel import specfun
    specfun._second_kind.cache_clear()
