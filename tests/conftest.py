"""Shared fixtures for the test suite."""

from __future__ import annotations

import pathlib
import sys

import pytest

from repro.sim import Simulator

from tests.helpers import TwoHostNet

# Tests import the scripts as the scripts import each other: as
# top-level modules (``import pins``).
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "scripts"))


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=42)


@pytest.fixture
def two_hosts() -> TwoHostNet:
    return TwoHostNet()
