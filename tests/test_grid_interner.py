"""grid.Interner's two key kinds against a dict of row tuples.

Rows are keyed by their mixed-radix number in int64 where the cube
[-radius, radius]^dim fits, and by a byte view where it does not.  Both
must number rows in order of first occurrence, keep the same ``coords``
and give the same ``find`` results, whatever the radius that picks the
kind; a row outside the cube must never be taken for another one.
"""

import numpy as np
import pytest

from psrplan import grid as gridmod
from psrplan.baseline import build_delta_grid
from psrplan.grid import Interner
from psrplan.zoo import random_pomdp

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


@pytest.mark.parametrize("radius", [3, widest_radius(4) + 1])
def test_many_calls_with_fresh_rows_in_each(radius):
    """Forty calls, each with rows seen before and rows not, so the recent
    run of keys merges into the main one several times; ``find`` between
    calls must see both runs."""
    rng = np.random.default_rng(11)
    pool = rng.integers(-3, 4, size=(4000, 4))
    intern = Interner(4, radius)
    known, merged, split = {}, 0, 0
    for call in range(40):
        block = pool[rng.integers(100 * (call + 1), size=200)]
        want = [known.setdefault(tuple(row), len(known)) for row in block.tolist()]
        np.testing.assert_array_equal(intern(block), want)
        merged += intern.recent_keys.size == 0
        split += intern.recent_keys.size > 0
        probe = pool[rng.integers(len(pool), size=300)]
        np.testing.assert_array_equal(
            intern.find(probe), [known.get(tuple(row), -1) for row in probe.tolist()]
        )
    np.testing.assert_array_equal(intern.coords, list(known))
    assert merged >= 3 and split >= 3


def test_a_closure_settles_its_index(monkeypatch):
    m = random_pomdp(4, 2, 2, 2, seed=1, dirichlet=0.5)
    # 256 states per block: the closure spans at least three blocks
    monkeypatch.setattr(gridmod, "BLOCK_BRANCHES", 256 * m.n_actions * m.n_signals)
    grid = build_delta_grid(m, 0.025)
    assert grid.n_states > 2 * 256
    assert grid.coords.flags.owndata  # not a view of the growth buffer
    assert grid.index.recent_keys.size == 0
    np.testing.assert_array_equal(grid.index.find(grid.coords), np.arange(grid.n_states))


@pytest.mark.parametrize("radius", [3, widest_radius(2) + 1])
def test_empty_and_all_known_calls_add_no_row(radius):
    known = np.array([[1, 2], [-3, 0], [0, 0]])
    empty = np.empty((0, 2), dtype=np.int64)
    intern = Interner(2, radius)
    assert intern(empty).dtype == np.int64 and intern(empty).size == 0
    assert intern.coords.shape == (0, 2)
    np.testing.assert_array_equal(intern(known), [0, 1, 2])
    for block in (empty, known[[2, 0, 2, 1, 0]]):
        runs = (intern.keys.size, intern.recent_keys.size)
        np.testing.assert_array_equal(intern(block), reference_ids([known, block])[1])
        assert (intern.keys.size, intern.recent_keys.size) == runs
        np.testing.assert_array_equal(intern.coords, known)


@pytest.mark.parametrize("radius", [3, widest_radius(2) + 1])
def test_a_call_mixing_new_and_known_rows_numbers_new_ones_as_they_occur(radius):
    """Known rows whose keys sort after the new ones come first in the call,
    and the new row met first sorts after the other new one."""
    known = np.array([[3, 3], [2, 2]])
    block = np.array([[3, 3], [0, 0], [2, 2], [-1, -1], [0, 0], [3, 3], [-1, -1]])
    intern = Interner(2, radius)
    want = reference_ids([known, block])
    np.testing.assert_array_equal(intern(known), want[0])
    np.testing.assert_array_equal(intern(block), want[1])
    np.testing.assert_array_equal(want[1], [0, 2, 1, 3, 2, 0, 3])
    np.testing.assert_array_equal(intern.coords, [[3, 3], [2, 2], [0, 0], [-1, -1]])
    np.testing.assert_array_equal(intern.find(intern.coords), np.arange(4))


@pytest.mark.parametrize("order", [[0, 1], [1, 0]])
def test_locate_sends_an_l1_tie_to_the_lower_id(order):
    """(1, 0) is one L1 step from both (0, 0) and (2, 0), whichever is interned first."""
    intern = Interner(2, 3)
    intern(np.array([[0, 0], [2, 0]])[order])
    empty = np.empty(0)
    grid = gridmod.GridMdp(
        mesh=1.0, coords=intern.coords, n_actions=1,
        **gridmod.sweep_layout(np.zeros((2, 1)), np.zeros(2, dtype=np.int64),
                               [empty.astype(np.int64)], [empty]),
        discount=0.5, initial_state=0, index=intern,
    )
    np.testing.assert_array_equal(grid.locate([[1, 0], [2, 0], [1, 1], [-1, 0]]),
                                  [0, order.index(1), 0, order.index(0)])
    assert grid.diagnostics["actFallbacks"] == 3
