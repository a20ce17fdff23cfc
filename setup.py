"""Packaging metadata for the ``repro`` library (the only build config).

`pip install .` (or `pip install -e .`) installs the package from ``src/``
with its runtime dependency floor; `python setup.py develop` is the
offline fallback for toolchains that cannot do PEP 660 editable installs.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "_version.py").read_text(),
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Controlling false discoveries during interactive data exploration "
        "(AWARE): alpha-investing sessions over a columnar engine"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # NumPy 2.0 added np.bitwise_count, which the histogram kernel needs.
    install_requires=["numpy>=2.0", "scipy"],
)
