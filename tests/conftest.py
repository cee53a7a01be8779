"""Shared fixtures: the exhaustive instance families used across test modules."""

from __future__ import annotations

import pytest
from hypothesis import settings

import udim

settings.register_profile("udim", deadline=None, max_examples=60)
settings.load_profile("udim")


@pytest.fixture(scope="session")
def unicyclic_classes() -> dict[int, list[udim.UnicyclicGraph]]:
    """One representative per unicyclic isomorphism class, for n in 3..10."""
    return {
        n: list(udim.gen_exhaustive_unicyclic(n)) for n in range(3, 11)
    }


@pytest.fixture(scope="session")
def tree_classes() -> dict[int, list[udim.Graph]]:
    """One representative per tree isomorphism class, for n in 1..10."""
    return {n: list(udim.gen_exhaustive_trees(n)) for n in range(1, 11)}
