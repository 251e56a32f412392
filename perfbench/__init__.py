"""End-to-end benchmark harness (see run.py and README.md)."""
