"""Setuptools shim so ``pip install -e .`` works on offline hosts whose
setuptools lacks PEP 660 editable-wheel support."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
