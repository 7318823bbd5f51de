"""Shared configuration for the benchmark harnesses.

Every benchmark regenerates one of the paper's tables or figures at a reduced
scale (the paper uses 10 000 kernels per mode on real silicon; a pure-Python
simulator cannot).  The scale knobs below can be raised for a longer, more
faithful run.
"""

import pytest

from repro.generator.options import GeneratorOptions

#: Kernels per generator mode for the Table 1 / Table 4 style campaigns.
KERNELS_PER_MODE = 6
#: EMI base programs and variants per base for the Table 5 style campaign.
EMI_BASES = 4
EMI_VARIANTS_PER_BASE = 10
#: EMI variants per (benchmark, setting) for the Table 3 style campaign.
TABLE3_VARIANTS = 3

#: Generator scale used throughout the benchmarks.
BENCH_OPTIONS = GeneratorOptions(
    min_total_threads=4,
    max_total_threads=24,
    max_group_size=8,
    max_statements=8,
)

#: Interpretation-step budget standing in for the paper's 60 s timeout.
MAX_STEPS = 400_000


@pytest.fixture(scope="session")
def bench_options():
    return BENCH_OPTIONS
