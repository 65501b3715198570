"""The repo's benchmark: four workloads, end-to-end metrics, per-layer
probes and a traced run.  See README.md in this directory and
BENCHMARK.json at the repository root."""
