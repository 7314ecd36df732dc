"""End-to-end and per-layer benchmark of LLA; see README.md."""
