"""In-process benchmark of the toricfans CLI and library (see README.md)."""
