"""Setuptools packaging for the ``repro`` library under ``src/``.

This file is the package's only build metadata.  The tests, examples and
benchmarks also run uninstalled, with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Adaptive density estimation for selectivity estimation in database systems "
        "(VLDB 2006 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
