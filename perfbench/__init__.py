"""The repository's performance benchmark (entry point: ``perfbench/run.py``).

The package is self-contained: it imports the ``repro`` library from the
checkout's ``src/`` and measures it from outside, through its public entry
points only.
"""
