"""Benchmark support code for relucalc: the bitwise evaluation oracle, the
span tracer, the percentile rule, the environment record and the workloads.
"""
