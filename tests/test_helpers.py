"""The test oracles in ``helpers.py`` that other tests lean on."""

from __future__ import annotations

from hgkit import Partition

from helpers import same_blocks


def test_equality_is_label_sensitive():
    a = Partition({1: 1, 2: 2})
    b = Partition({1: 10, 2: 20})
    assert a != b
    assert same_blocks(a, b)


def test_same_blocks_detects_differences():
    a = Partition.from_communities([{1, 2}, {3}])
    b = Partition.from_communities([{1}, {2, 3}])
    assert not same_blocks(a, b)
    assert not same_blocks(a, Partition({1: 1, 2: 1}))
