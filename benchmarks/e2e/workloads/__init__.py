"""One module per workload; each exports ``WORKLOAD`` (see run.py)."""
