"""Workload benchmark of the replay, profiling and streaming pipelines (see ``run.py``)."""
