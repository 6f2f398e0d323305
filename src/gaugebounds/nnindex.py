"""The backend object and the backend entry points, under their old module.

PrefixNNBackend, prefix_min_indexed and leave_one_out_min live in
estimators; this module only re-exports them.  It stays because the
benchmark's traced launcher, perfbench/shim.py, looks them up under
sys.modules["gaugebounds.nnindex"] and names their spans nnindex.*, which
tests/test_benchmark_contract.py expects.  It goes with the next change to
the benchmark.
"""

from .estimators import PrefixNNBackend, leave_one_out_min, prefix_min_indexed

__all__ = ["PrefixNNBackend", "prefix_min_indexed", "leave_one_out_min"]
