"""The repository's benchmark: see ``perfbench/README.md``."""
