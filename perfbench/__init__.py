"""Benchmark of the mac captioner: workloads, tracer and runner (see README.md)."""
