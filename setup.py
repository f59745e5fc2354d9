"""Setuptools shim.

The execution environment for this reproduction is fully offline and ships
setuptools 65 without the ``wheel`` package, so PEP-660 editable installs
(which must build a wheel) cannot work.  Keeping a ``setup.py`` and omitting
the ``[build-system]`` table from ``pyproject.toml`` lets
``pip install -e .`` fall back to the legacy ``setup.py develop`` path,
which needs nothing beyond setuptools itself.
"""

from setuptools import find_packages, setup

setup(
    name="repro-bcsf",
    version="0.3.0",
    description="Pure-Python reproduction of balanced-CSF (B-CSF / HB-CSF) "
                "sparse-MTTKRP load balancing on GPUs (IPDPS 2019)",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        "test": ["pytest", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            "repro-experiments=repro.experiments.registry:main",
            "repro-scenarios=repro.scenarios.cli:main",
            "repro-bench=repro.bench.cli:main",
            "repro-telemetry=repro.telemetry.cli:main",
        ],
    },
)
