"""Benchmark harness: one module per paper table/figure (see the README's
"Tests and benchmarks" section)."""
