"""Setuptools packaging for the PEATS reproduction library.

The library is pure Python with no third-party runtime dependencies,
so the metadata lives right here (no ``pyproject.toml`` is required);
the file also keeps legacy flows working (``python setup.py develop`` or
``pip install -e . --no-use-pep517``) on fully offline machines without
the ``wheel`` package.  Packages are discovered from ``src/`` so newly
added subpackages (e.g. ``repro.net``) are picked up automatically.
"""

from setuptools import find_packages, setup

if __name__ == "__main__":
    setup(
        name="repro-peats",
        version="0.7.0",
        description=(
            "Reproduction of policy-enforced augmented tuple spaces (PEATS) "
            "with simulated and real-network (asyncio/TCP) BFT replicated "
            "and sharded deployments"
        ),
        package_dir={"": "src"},
        packages=find_packages("src"),
        python_requires=">=3.10",
    )
