"""The repository benchmark: closed-loop workloads over the public API.

Run it from the repository root::

    python3 perfbench/run.py --workload point-plans --seed 1 --seconds 20 --trace 0

``perfbench/run.py`` documents the workloads, the metrics and the output.
The package imports ``repro`` from the ``src`` directory of the checkout it
lives in, so the benchmark always measures the code next to it.
"""
