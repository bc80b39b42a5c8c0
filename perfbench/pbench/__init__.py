"""Benchmark harness for diskcover: seeded workloads, output checks, tracing."""
