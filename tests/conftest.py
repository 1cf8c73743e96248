"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

import hopfcheck
from hopfcheck import sampling


@pytest.fixture
def child_env():
    """The environment with the tested package's source directory first on
    PYTHONPATH, so a child interpreter imports the package the tests import."""
    src = str(Path(hopfcheck.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


@pytest.fixture
def lane_passes(monkeypatch):
    """The (count, k) of every lane pass the samplers make while the test runs."""
    passes, original = [], sampling._lane_words

    def recording(start, count, k):
        passes.append((count, k))
        return original(start, count, k)

    monkeypatch.setattr(sampling, "_lane_words", recording)
    return passes
