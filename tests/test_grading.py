import random
from math import gcd

import pytest

from edgelift.grading import (NoIntegralPoint, NoMixedSigns, WeightSystem,
                              basis_reduction_steps, line_interval, orthogonal_basis)
from edgelift.poly import exp_add, exp_dot, primitive_vector

from oracles import box_slice_points, int_det


def random_direction(rng, n, max_entry=6):
    while True:
        c = tuple(rng.randint(-max_entry, max_entry) for _ in range(n))
        if not (any(x > 0 for x in c) and any(x < 0 for x in c)):
            continue
        g = 0
        for x in c:
            g = gcd(g, abs(x))
        return tuple(x // g for x in c)


def test_basis_two_vars():
    ws = orthogonal_basis((1, -1))
    assert ws.basis[0] == (1, 1)
    assert ws.basis[1] in ((1, 0), (0, 1))


def test_basis_three_vars():
    ws = orthogonal_basis((1, 1, -1))
    for v in ws.basis[:-1]:
        assert exp_dot(v, (1, 1, -1)) == 0
        assert all(x >= 0 for x in v)
    rows = [list(v) for v in ws.basis]
    assert int_det(rows) != 0


def test_basis_mixed_magnitudes():
    # exact output depends on the tie-breaking, so check the contract
    # rather than literals
    ws = orthogonal_basis((2, 3, -4))
    for v in ws.basis[:-1]:
        assert exp_dot(v, (2, 3, -4)) == 0
    assert abs(int_det([list(v) for v in ws.basis])) == 1
    assert all(x > 0 for x in ws.xi0)


def test_basis_requires_mixed_signs():
    with pytest.raises(NoMixedSigns):
        orthogonal_basis((1, 2, 3))
    with pytest.raises(NoMixedSigns):
        orthogonal_basis((0, -1, -2))


def test_basis_measure_strictly_decreases():
    rng = random.Random(1001)
    for _ in range(200):
        c = random_direction(rng, rng.randint(2, 5), 30)
        _, trace = basis_reduction_steps(c)
        sums = [sum(abs(x) for x in w) for w in trace]
        assert all(a > b for a, b in zip(sums, sums[1:]))


def test_weight_map():
    ws = orthogonal_basis((2, -3))  # basis pairs to omega(a, b) = (3a + 2b)
    # additive and kills the direction
    assert ws.weight((0, 0)) == (0,)
    alpha = (4, 1)
    assert ws.weight(exp_add(alpha, (2, -3))) == ws.weight(alpha)
    beta = (1, 5)
    assert ws.weight(exp_add(alpha, beta)) == tuple(
        a + b for a, b in zip(ws.weight(alpha), ws.weight(beta)))


def weight_32():
    # the plane weight 3a + 2b as a weight system: direction (2, -3)
    ws = orthogonal_basis((2, -3))
    assert ws.weight((1, 0)) == (3,) and ws.weight((0, 1)) == (2,)
    return ws


def test_slice_examples_weight_32():
    ws = weight_32()
    assert ws.slice((1,)).dim == 0       # no monomial of weight 1
    zero = ws.slice((0,))
    assert zero.points == ((0, 0),) and zero.dim == 1
    six = ws.slice((6,))
    assert set(six.points) == {(2, 0), (0, 3)} and six.dim == 2


def test_slice_matches_box_enumeration():
    rng = random.Random(2002)
    for _ in range(120):
        n = rng.randint(2, 3)
        c = random_direction(rng, n, 4)
        ws = orthogonal_basis(c)
        w = tuple(rng.randint(0, 10) for _ in range(n - 1))
        try:
            pts = ws.slice(w).points
        except NoIntegralPoint:
            pts = None
        bound = sum(w) + 1
        box = box_slice_points([list(v) for v in ws.basis[:-1]], list(w), bound)
        if pts is None:
            assert box == []
        else:
            assert sorted(pts, key=lambda e: (sum(e), e)) == box


def test_slice_points_consistency():
    rng = random.Random(3003)
    for _ in range(100):
        n = rng.randint(2, 4)
        c = random_direction(rng, n)
        ws = orthogonal_basis(c)
        alpha = tuple(rng.randint(0, 8) for _ in range(n))
        sl = ws.slice(ws.weight(alpha), anchor=alpha)
        assert alpha in sl.points
        for p in sl.points:
            assert ws.weight(p) == sl.weight
        for p, q in zip(sl.points, sl.points[1:]):
            assert tuple(y - x for x, y in zip(p, q)) == ws.direction



def test_slice_cap_equals_filtered_slice():
    """The capped slice is the uncapped one filtered by p[-1] <= max_last,
    in the same order, whatever the sign of the direction's last entry."""
    rng = random.Random(4004)
    signs = {-1: 0, 0: 0, 1: 0}
    directions = [(1, -1, 0), (0, 1, -1), (-1, 0, 1)]
    directions += [random_direction(rng, rng.randint(2, 4)) for _ in range(120)]
    for c in directions:
        ws = orthogonal_basis(c)
        alpha = tuple(rng.randint(0, 8) for _ in range(len(c)))
        w = ws.weight(alpha)
        full = ws.slice(w, anchor=alpha).points
        lasts = [p[-1] for p in full]
        caps = {min(lasts) - 1, min(lasts), max(lasts), max(lasts) + 3,
                rng.randint(min(lasts), max(lasts))}
        for cap in caps:
            capped = ws.slice(w, anchor=alpha, max_last=cap)
            assert capped.weight == w
            assert capped.points == tuple(p for p in full if p[-1] <= cap)
        signs[(c[-1] > 0) - (c[-1] < 0)] += 1
    assert min(signs.values()) >= 3

@pytest.mark.parametrize("last", [-1, 0, 1], ids=["last<0", "last=0", "last>0"])
def test_interval_slice_is_the_clipped_line(last):
    """line_interval, and the slice built from it, give exactly the points
    anchor + t*c in the orthant (and under the cap), in order of t, for
    mixed-sign directions c whose last entry has the given sign; anchors
    off the orthant and low caps give empty slices."""
    hp = pytest.importorskip("hypothesis")
    st = hp.strategies
    last_entry = {-1: st.integers(-6, -1), 0: st.just(0), 1: st.integers(1, 6)}[last]
    directions = st.integers(2, 4).flatmap(
        lambda n: st.tuples(*[st.integers(-6, 6)] * (n - 1), last_entry)).filter(
        lambda c: min(c) < 0 < max(c)).map(primitive_vector)
    nonempty = set()

    @hp.settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @hp.given(directions, st.data())
    def check(c, data):
        anchor = data.draw(st.tuples(*[st.integers(-8, 12)] * len(c)))
        cap = data.draw(st.none() | st.integers(-3, 15))
        ws = orthogonal_basis(c)
        # every coordinate is in -8..12 and every nonzero |c_i| >= 1, so the
        # orthant points of the line have |t| <= 12
        line = [tuple(a + t * x for a, x in zip(anchor, c)) for t in range(-30, 31)]
        expected = tuple(p for p in line if min(p) >= 0 and (cap is None or p[-1] <= cap))
        piece = ws.slice(ws.weight(anchor), anchor, cap)
        assert piece.points == expected and piece.dim == len(expected)
        first, count = line_interval(anchor, c, cap)
        assert count == len(expected) and (not count or first == expected[0])
        nonempty.add(count > 0)

    check()
    assert nonempty == {False, True}


def test_in_monoid_basics():
    ws = weight_32()
    assert ws.in_monoid((0,))
    # any weight with a nonempty slice is in M
    for w in range(0, 14):
        if ws.slice((w,)).dim > 0:
            assert ws.in_monoid((w,))


def in_monoid_oracle(ws, z):
    """Ray enumeration version: z is in M iff an integral point alpha exists
    on the line and every extreme ray of { xi >= 0, <xi, c> = 0 } pairs
    nonnegatively with alpha."""
    from edgelift.linalg import solve_integer

    solved = solve_integer([list(v) for v in ws.basis[:-1]], list(z))
    if solved is None:
        return False
    alpha = solved[0]
    n = ws.nvars
    from itertools import combinations

    from oracles import kernel_vector

    orthant = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    eqs = [list(ws.direction)]
    for combo in combinations(range(n), n - 2):
        mat = eqs + [orthant[i] for i in combo]
        v = kernel_vector(mat, n)
        if not any(v):
            continue
        for cand in (v, [-x for x in v]):
            if all(x >= 0 for x in cand):
                if sum(x * y for x, y in zip(cand, alpha)) < 0:
                    return False
                break
    return True


def test_in_monoid_against_ray_oracle():
    rng = random.Random(4004)
    for _ in range(150):
        n = rng.randint(2, 4)
        c = random_direction(rng, n)
        ws = orthogonal_basis(c)
        alpha = tuple(rng.randint(-6, 9) for _ in range(n))
        z = ws.weight(alpha)
        assert ws.in_monoid(z) == in_monoid_oracle(ws, z)


def test_monoid_closed_under_addition():
    rng = random.Random(5005)
    checked = 0
    for _ in range(300):
        n = rng.randint(2, 4)
        c = random_direction(rng, n)
        ws = orthogonal_basis(c)
        z1 = ws.weight(tuple(rng.randint(-5, 8) for _ in range(n)))
        z2 = ws.weight(tuple(rng.randint(-5, 8) for _ in range(n)))
        if ws.in_monoid(z1) and ws.in_monoid(z2):
            checked += 1
            assert ws.in_monoid(exp_add(z1, z2))
    assert checked > 40


def coprime_slice_weight(ws, r):
    """Weight whose slice endpoints are coprime: start at r * negative part
    of the direction."""
    start = tuple(r * max(0, -d) for d in ws.direction)
    return ws.weight(start), start


def test_dimension_formula():
    # dim R_{w+z} = dim R_w + dim R_z - 1 when the w-slice has coprime
    # endpoints and z lies in the monoid
    rng = random.Random(6006)
    checked_zero = 0
    checked = 0
    while checked < 200:
        n = rng.randint(2, 4)
        c = random_direction(rng, n)
        ws = orthogonal_basis(c)
        r = rng.randint(1, 4)
        w, start = coprime_slice_weight(ws, r)
        sl_w = ws.slice(w)
        assert sl_w.dim == r + 1
        first, last = sl_w.points[0], sl_w.points[-1]
        assert all(min(a, b) == 0 for a, b in zip(first, last))
        z = ws.weight(tuple(rng.randint(-4, 7) for _ in range(n)))
        if not ws.in_monoid(z):
            continue
        if sum(z) > 30 or any(x < 0 for x in z):
            continue
        dz = ws.slice(z).dim
        if dz == 0:
            checked_zero += 1
        total = ws.slice(exp_add(w, z)).dim
        assert total == sl_w.dim + dz - 1
        checked += 1
    assert checked_zero > 0  # the dim-zero branch must be exercised


def test_weight_system_validation():
    with pytest.raises(ValueError):
        WeightSystem((1, -1), ((1, 0), (0, 1)))  # (1,0) not orthogonal
    with pytest.raises(ValueError):
        WeightSystem((2, -2), ((1, 1), (1, 0)))  # not primitive


def test_slice_no_integral_point():
    # a hand-built (non-unimodular) weight system has weights outside the
    # image lattice; that is distinct from an empty slice
    ws = WeightSystem((1, -1), ((2, 2), (1, 0)))
    with pytest.raises(NoIntegralPoint):
        ws.slice((1,))
    assert ws.slice((4,)).points == ((0, 2), (1, 1), (2, 0))
    assert not ws.in_monoid((1,))
