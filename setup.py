"""Setup shim.

The project metadata lives in ``pyproject.toml``; this file exists only so
that legacy editable installs (``pip install -e . --no-use-pep517``) work on
offline hosts that lack the ``wheel`` package required by PEP 660 editable
builds.
"""

from setuptools import setup

setup()
