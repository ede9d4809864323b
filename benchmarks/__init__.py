"""Figure-regeneration benchmarks and timing gates (pytest + pytest-benchmark).

From the repo root:

    PYTHONPATH=src python -m pytest benchmarks/bench_*.py -q

``REPRO_FULL=1`` switches the DSE sweeps to the paper's full spaces.
``bench_gates.py`` holds the warm-vs-cold timing gates CI runs by node id.
"""
