"""Package metadata for ``pip install -e .`` (a setup.py, so editable
installs work without the ``wheel`` package that PEP 660 builds need).

The library lives under ``src/repro``; its version is read from
``repro.__version__`` so the two cannot disagree.  The library needs
numpy and scipy; the test suite also uses networkx, pytest, hypothesis
and pytest-benchmark.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)
