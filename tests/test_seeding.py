from __future__ import annotations

import pytest

from cgflow import seeding
from cgflow.seeding import mix64


# mix64 seeds every artifact, so its outputs are pinned: a change here
# changes every dataset, checkpoint and sample file
PINNED = [
    ((0,), 0x6E789E6AA1B965F4),
    ((1,), 0xE99FF867DBF682C9),
    ((-1,), 0xB4D055FCF2CBBD7B),
    ((20240810, 3), 0x07D79376AF004098),
    (("trajectory",), 0x20CD4D1850FB118A),
    ((7, "tb-traj", 3, 5), 0x52184DC811EEF0B5),
    (("",), 0x6E789E6AA1B965F4),
    ((2**64 + 5, "é"), 0xE35865CD5D9F8BB5),
]


@pytest.mark.parametrize("values, want", PINNED, ids=[f"case{i}" for i in range(len(PINNED))])
def test_mix64_pinned(values, want):
    assert mix64(*values) == want
    assert mix64(*values) == want  # again, from the memoised tag fold


def test_tag_fold_is_memoised_for_strings_only():
    seeding._fold_tag.cache_clear()
    for _ in range(3):
        mix64(5, "trajectory", 9)
    info = seeding._fold_tag.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
