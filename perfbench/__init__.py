"""The committed benchmark: see README.md and ../BENCHMARK.json."""
