"""Settings for every test session, loaded before tests/ and perfbench/.

The encoder's bytes depend on how many threads OpenBLAS runs: one thread
rounds some matrix products differently from two or more. The digests pinned
in tests/test_golden_pipeline.py are the two-thread result, so the thread
count is set here, before numpy is first imported. perfbench sets one thread
in the processes it starts for its own measurements.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "2"
