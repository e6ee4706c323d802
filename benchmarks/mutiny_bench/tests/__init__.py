"""Self-tests of the benchmark (collected by ``pytest benchmarks``)."""
