"""Package metadata for the ``repro`` library (src layout).

The metadata lives here rather than in a ``pyproject.toml`` so an
editable install also works offline with setuptools alone.  With the
``wheel`` package available::

    pip install --no-deps --no-build-isolation --no-use-pep517 -e .

Without it pip cannot build at all (PEP 517 needs ``bdist_wheel``, and
pip >= 23.1 refuses ``--no-use-pep517`` without ``wheel``); then run
``python setup.py develop`` in the target environment instead.  The
version is read from ``src/repro/__init__.py`` so it has one source.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Structurally robust similarity search over graph databases "
        "(RelSim and baselines)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
