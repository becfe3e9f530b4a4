"""grid.Interner's two key kinds against a dict of row tuples.

Rows are keyed by their mixed-radix number in int64 where the cube
[-radius, radius]^dim fits, and by a byte view where it does not.  Both
must number rows in order of first occurrence, keep the same ``coords``
and give the same ``find`` results, whatever the radius that picks the
kind; a row outside the cube must never be taken for another one.
"""

import numpy as np
import pytest

from psrplan.grid import Interner

INT64_MAX = np.iinfo(np.int64).max


def widest_radius(dim):
    """Largest radius whose cube (2 radius + 1)^dim still has int64 keys."""
    radius = int(((INT64_MAX ** (1.0 / dim)) - 1) // 2) + 2
    while (2 * radius + 1) ** dim > INT64_MAX:
        radius -= 1
    return radius


def int64_keyed(interner):
    return interner.keys.dtype == np.int64


def planted_rows(seed, radius, rows=2000, dim=4):
    """Random rows in the cube, a third of them overwritten by copies of
    others, and every corner of the cube twice."""
    rng = np.random.default_rng(seed)
    coords = rng.integers(-radius, radius + 1, size=(rows, dim))
    copies = rng.choice(rows, size=rows // 3, replace=False)
    coords[copies] = coords[rng.integers(rows, size=copies.size)]
    corners = radius * (2 * np.indices((2,) * dim).reshape(dim, -1).T - 1)
    return np.concatenate([corners, coords, corners])


def reference_ids(blocks):
    """Ids by first occurrence over the blocks in order, from a dict."""
    ids = {}
    return [np.array([ids.setdefault(tuple(row), len(ids)) for row in block.tolist()])
            for block in blocks]


def test_widest_radius_is_the_int64_limit():
    for dim in (1, 2, 4, 8, 12):
        radius = widest_radius(dim)
        assert (2 * radius + 1) ** dim <= INT64_MAX < (2 * radius + 3) ** dim
        assert int64_keyed(Interner(dim, radius))
        assert not int64_keyed(Interner(dim, radius + 1))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("radius", [3, widest_radius(4)])
def test_both_key_kinds_number_rows_alike(seed, radius):
    """The same rows through an int64-keyed interner (radius) and a
    byte-keyed one (a radius too wide for int64), in three calls."""
    rows = planted_rows(seed, radius)
    blocks = np.array_split(rows, [700, 1500])
    narrow, wide = Interner(4, radius), Interner(4, widest_radius(4) + 1)
    assert int64_keyed(narrow) and not int64_keyed(wide)
    for block, want in zip(blocks, reference_ids(blocks)):
        np.testing.assert_array_equal(narrow(block), want)
        np.testing.assert_array_equal(wide(block), want)
    np.testing.assert_array_equal(narrow.coords, wide.coords)
    first = np.unique(np.concatenate(reference_ids(blocks)), return_index=True)[1]
    np.testing.assert_array_equal(narrow.coords, rows[first])

    rng = np.random.default_rng(seed + 100)
    probe = np.concatenate([rows[::7], rng.integers(-radius, radius + 1, size=(300, 4))])
    found = narrow.find(probe)
    np.testing.assert_array_equal(found, wide.find(probe))
    known = {tuple(row): i for i, row in enumerate(narrow.coords.tolist())}
    np.testing.assert_array_equal(found, [known.get(tuple(row), -1) for row in probe.tolist()])


@pytest.mark.parametrize("radius", [1, widest_radius(2) + 1])
def test_rows_outside_the_cube_raise_and_are_never_found(radius):
    intern = Interner(2, radius)
    ids = intern(np.array([[-1, 1], [0, 0]]))
    # (2, 0) has the mixed-radix number of (-1, 1) at radius 1
    outside = np.array([[radius + 1, 0], [0, -radius - 1], [-(2**63), 0], [INT64_MAX, 1]])
    for row in outside:
        with pytest.raises(ValueError, match="outside"):
            intern(np.array([[0, 0], row]))
    assert intern.coords.shape[0] == 2
    probe = np.concatenate([outside, [[-1, 1], [0, 0], [1, 1]]])
    np.testing.assert_array_equal(intern.find(probe), [-1, -1, -1, -1, ids[0], ids[1], -1])


def test_find_rejects_an_unstacked_point():
    intern = Interner(3, 2)
    intern(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        intern.find(np.zeros(3, dtype=np.int64))
