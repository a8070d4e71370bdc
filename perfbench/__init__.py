"""Fixed-work benchmark for celab: workloads, correctness gates and tracing."""
