"""Profit, throughput and per-layer benchmark of the allocation system."""
