"""Setuptools shim: ``pip install -e .`` works with setuptools alone,
without the ``wheel`` package or build dependencies fetched from an index.
"""

from setuptools import setup

setup()
