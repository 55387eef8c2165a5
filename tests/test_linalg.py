import random
from fractions import Fraction

from edgelift.coeffs import prime_field, rationals
import pytest

from edgelift.linalg import _extend_elimination, _replay, solve_field, solve_integer, xgcd
from oracles import dense_solve_field


def test_xgcd():
    rng = random.Random(5)
    for _ in range(300):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        g, x, y = xgcd(a, b)
        assert a * x + b * y == g
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_solve_field_deterministic_free_variables():
    Q = rationals()
    # one equation, three unknowns: the first column pivots, the rest are zero
    rows = [[Fraction(2), Fraction(1), Fraction(1)]]
    sol = solve_field(Q, rows, [Fraction(4)])
    assert sol == [Fraction(2), Fraction(0), Fraction(0)]


def test_solve_field_inconsistent():
    Q = rationals()
    rows = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert solve_field(Q, rows, [Fraction(1), Fraction(3)]) is None


def test_solve_field_leaves_its_rows_and_pivots_left_to_right():
    """solve_field leaves the caller's rows as they are, and the elimination
    of a rank-2 system pivots in its first two columns."""
    for ring in (rationals(), prime_field(7)):
        rows = [[ring.from_int(v) for v in row] for row in ([0, 2, 1], [3, 1, 0], [6, 2, 0])]
        before = [list(row) for row in rows]
        assert solve_field(ring, rows, [ring.from_int(v) for v in (1, 1, 2)]) is not None
        assert rows == before
        m, n, pivots, _ = eliminate(ring, rows)
        assert (m, n, pivots) == (3, 3, [0, 1])


def test_solve_field_randomized():
    rng = random.Random(66)
    for ring in (rationals(), prime_field(7)):
        for _ in range(200):
            m, n = rng.randint(1, 4), rng.randint(1, 5)
            rows = [[ring.from_int(rng.randint(-5, 5)) for _ in range(n)]
                    for _ in range(m)]
            x_true = [ring.from_int(rng.randint(-5, 5)) for _ in range(n)]
            rhs = [sum_row(ring, row, x_true) for row in rows]
            sol = solve_field(ring, rows, rhs)
            assert sol is not None  # consistent by construction
            assert [sum_row(ring, row, sol) for row in rows] == rhs



def eliminate(ring, rows):
    """The elimination of ``rows``: one _extend_elimination call from the
    empty elimination, with every column of ``rows``."""
    m = len(rows)
    return _extend_elimination(ring, (m, 0, [], []),
                               [list(enumerate(column)) for column in zip(*rows)], m)


def check_replay(ring, elimination, rows, rhs):
    """Replay ``rhs`` through the elimination of ``rows`` and check it
    against the dense reference: consistent exactly when the reference
    solves it, with the replayed entries the reference's values at the
    pivot columns and the reference zero at the free ones.  Returns whether
    the system is inconsistent."""
    _, n, pivots, ops = elimination
    b = _replay(ring, ops, list(rhs))
    expected = dense_solve_field(ring, rows, rhs)
    assert any(b[len(ops):]) == (expected is None)
    if expected is not None:
        assert [ring.normalize(v) for v in b[:len(ops)]] == [expected[c] for c in pivots]
        assert all(ring.is_zero(expected[c]) for c in range(n) if c not in pivots)
    return expected is None


def random_system(rng, ring):
    """A sparse system that is full-rank, rank-deficient or inconsistent."""
    m, n = rng.randint(1, 7), rng.randint(1, 7)

    def entry():
        return ring.from_int(rng.randint(-5, 5) if rng.random() < 0.4 else 0)

    kind = rng.choice(("random", "deficient", "inconsistent"))
    if kind == "deficient":
        basis = [[entry() for _ in range(n)] for _ in range(rng.randint(1, max(1, m - 1)))]
        rows = []
        for _ in range(m):
            scales = [ring.from_int(rng.randint(-2, 2)) for _ in basis]
            rows.append([sum_row(ring, col, scales) for col in zip(*basis)])
    else:
        rows = [[entry() for _ in range(n)] for _ in range(m)]
    if kind == "inconsistent":
        rhs = [ring.from_int(rng.randint(-5, 5)) for _ in range(m)]
    else:
        x_true = [entry() for _ in range(n)]
        rhs = [sum_row(ring, row, x_true) for row in rows]
    return rows, rhs


def test_solve_field_matches_dense_reference():
    rng = random.Random(8080)
    for ring in (rationals(), prime_field(7), prime_field(2)):
        outcomes = set()
        for _ in range(400):
            rows, rhs = random_system(rng, ring)
            sol = solve_field(ring, rows, rhs)
            assert sol == dense_solve_field(ring, rows, rhs)
            outcomes.add(sol is None)
        assert outcomes == {True, False}


def test_solve_field_ignores_zero_rows_and_row_order():
    """The solution depends only on the columns: inserting zero rows or
    permuting the rows leaves it, or its absence, unchanged."""
    rng = random.Random(9090)
    for ring in (rationals(), prime_field(7), prime_field(2)):
        outcomes = set()
        for _ in range(300):
            rows, rhs = random_system(rng, ring)
            expected = solve_field(ring, rows, rhs)
            outcomes.add(expected is None)
            system = list(zip(rows, rhs))
            for _ in range(rng.randint(1, 3)):
                zero_row = [ring.zero()] * len(rows[0])
                system.insert(rng.randint(0, len(system)), (zero_row, ring.zero()))
            rng.shuffle(system)
            new_rows, new_rhs = zip(*system)
            assert solve_field(ring, list(new_rows), list(new_rhs)) == expected
        assert outcomes == {True, False}


def test_elimination_applies_to_many_right_hand_sides():
    """One elimination, replayed, answers every right-hand side of its
    matrix, sparse or dense, consistent or not, as the dense reference
    does."""
    rng = random.Random(4242)
    for ring in (rationals(), prime_field(7)):
        outcomes = set()
        for _ in range(150):
            rows, _ = random_system(rng, ring)
            elimination = eliminate(ring, rows)
            for _ in range(6):
                if rng.random() < 0.5:
                    x_true = [ring.from_int(rng.randint(-5, 5)) for _ in rows[0]]
                    rhs = [sum_row(ring, row, x_true) for row in rows]
                else:
                    rhs = [ring.from_int(rng.randint(-5, 5) if rng.random() < 0.5 else 0)
                           for _ in rows]
                outcomes.add(check_replay(ring, elimination, rows, rhs))
        assert outcomes == {True, False}


def test_an_extended_elimination_solves_as_a_fresh_one():
    """The cofactor systems of one split G, H, kept as the lift keeps them:
    the h'-block of G-columns, G shifted by j steps, is eliminated one
    column at a time as a growing sequence of keys (len_h, len_g, offset)
    asks for it, and each key's elimination is the block's first len_h
    columns extended by its g'-columns, H shifted by offset + i steps.  Over
    F_p and Q, each gives the pivots and operations of the key's matrix
    eliminated in one call from the empty elimination, and every
    right-hand side, consistent or not, replays to the dense reference's
    solution or None."""
    hp = pytest.importorskip("hypothesis")
    st = hp.strategies
    rings = st.sampled_from([rationals(), prime_field(2), prime_field(7)])
    line = st.lists(st.integers(-3, 3), min_size=1, max_size=4)
    keys = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3), st.integers(-3, 6)),
                    min_size=1, max_size=6).filter(lambda ks: any(a or b for a, b, _ in ks))
    outcomes = set()

    @hp.settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @hp.given(rings, line, line, st.integers(1, 3), keys, st.data())
    def check(ring, g, h, step, keys, data):
        g, h = [ring.from_int(c) for c in g], [ring.from_int(c) for c in h]
        hp.assume(g[0] and g[-1] and h[0] and h[-1])   # nonzero lines, as G and H are
        block_rows, block = {}, [(0, 0, [], [])]
        for len_h, len_g, offset in keys:
            if not (len_h or len_g):
                continue
            while len(block) <= len_h:
                j = len(block) - 1
                column = [(block_rows.setdefault(t + j * step, len(block_rows)), c)
                          for t, c in enumerate(g) if c]
                block.append(_extend_elimination(ring, block[-1], [column], len(block_rows)))
            rows = dict(list(block_rows.items())[:block[len_h][0]])
            columns = [[(rows.setdefault(t + offset + i * step, len(rows)), c)
                        for t, c in enumerate(h) if c] for i in range(len_g)]
            extended = _extend_elimination(ring, block[len_h], columns, len(rows))
            matrix = [[ring.zero()] * (len_h + len_g) for _ in rows]
            for j in range(len_h):
                for t, c in enumerate(g):
                    if c:
                        matrix[rows[t + j * step]][j] = c
            for i in range(len_g):
                for t, c in enumerate(h):
                    if c:
                        matrix[rows[t + offset + i * step]][len_h + i] = c
            fresh = eliminate(ring, matrix)
            assert extended == fresh
            for _ in range(3):
                if data.draw(st.booleans()):
                    x = [ring.from_int(data.draw(st.integers(-3, 3))) for _ in matrix[0]]
                    rhs = [sum_row(ring, r, x) for r in matrix]
                else:
                    rhs = [ring.from_int(data.draw(st.integers(-2, 2))) for _ in matrix]
                outcomes.add(check_replay(ring, fresh, matrix, rhs))
                assert solve_field(ring, matrix, rhs) == dense_solve_field(ring, matrix, rhs)

    check()
    assert outcomes == {True, False}


def sum_row(ring, row, x):
    acc = ring.zero()
    for a, b in zip(row, x):
        acc = ring.add(acc, ring.mul(a, b))
    return acc


def test_solve_integer_randomized():
    rng = random.Random(77)
    solved = unsolvable = 0
    for _ in range(300):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.6:
            x_true = [rng.randint(-4, 4) for _ in range(n)]
            rhs = [sum(a * b for a, b in zip(row, x_true)) for row in rows]
        else:
            rhs = [rng.randint(-9, 9) for _ in range(m)]
        result = solve_integer(rows, rhs)
        if result is None:
            unsolvable += 1
            # cross-check on a small box: no integer solution up to |x| <= 6
            assert not box_has_solution(rows, rhs, n, 6)
            continue
        particular, kernel = result
        solved += 1
        assert [sum(a * b for a, b in zip(row, particular)) for row in rows] == rhs
        for vec in kernel:
            assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)
    assert solved > 150 and unsolvable > 20


def box_has_solution(rows, rhs, n, radius):
    if n > 3:  # keep the brute force tractable; skip wide systems
        return False
    from itertools import product

    for cand in product(range(-radius, radius + 1), repeat=n):
        if all(sum(a * b for a, b in zip(row, cand)) == r
               for row, r in zip(rows, rhs)):
            return True
    return False


def test_solve_integer_divisibility():
    # 2x = 1 has no integer solution; 2x = 4 does
    assert solve_integer([[2]], [1]) is None
    particular, kernel = solve_integer([[2]], [4])
    assert particular == [2] and kernel == []
    # kernel of a rank-1 map on Z^2
    particular, kernel = solve_integer([[2, 3]], [5])
    assert 2 * particular[0] + 3 * particular[1] == 5
    assert len(kernel) == 1
    kx, ky = kernel[0]
    assert 2 * kx + 3 * ky == 0 and (kx, ky) != (0, 0)
