"""Paper-scale benchmark of the repro library (see README.md)."""
