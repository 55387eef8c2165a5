import random
from fractions import Fraction

from edgelift.coeffs import prime_field, rationals
from edgelift.linalg import (_apply_elimination, _eliminate_field, solve_field,
                             solve_integer, xgcd)


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


def test_solve_field_leaves_its_rows_and_eliminate_field_reduces_in_place():
    """solve_field works on a copy of the caller's rows; _eliminate_field,
    which the lift loop hands a matrix it built for it, reduces its
    argument to the reduced rows it returns the pivots of."""
    for ring in (rationals(), prime_field(7)):
        rows = [[ring.from_int(v) for v in row] for row in ([0, 2, 1], [3, 1, 0], [6, 2, 0])]
        before = [list(row) for row in rows]
        assert solve_field(ring, rows, [ring.from_int(v) for v in (1, 1, 2)]) is not None
        assert rows == before
        m, n, pivots, _ = _eliminate_field(ring, rows)
        assert (m, n, pivots) == (3, 3, [0, 1])
        assert rows != before and rows[2] == [0, 0, 0]
        assert [rows[i][col] for i, col in enumerate(pivots)] == [1, 1]


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



def dense_solve_field(ring, rows, rhs):
    """Reference Gauss-Jordan elimination that rewrites whole rows, with the
    pivot order of solve_field: columns left to right, first nonzero row."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) for r in rows]
    b = list(rhs)
    pivots = []
    r = 0
    for col in range(n):
        pivot_row = next((i for i in range(r, m) if not ring.is_zero(a[i][col])), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        b[r], b[pivot_row] = b[pivot_row], b[r]
        inv = ring.invert(a[r][col])
        a[r] = [ring.mul(v, inv) for v in a[r]]
        b[r] = ring.mul(b[r], inv)
        for i in range(m):
            if i != r and not ring.is_zero(a[i][col]):
                f = a[i][col]
                a[i] = [ring.sub(v, ring.mul(f, w)) for v, w in zip(a[i], a[r])]
                b[i] = ring.sub(b[i], ring.mul(f, b[r]))
        pivots.append(col)
        r += 1
    if any(not ring.is_zero(v) for v in b[r:]):
        return None
    x = [ring.zero()] * n
    for i, col in enumerate(pivots):
        x[col] = b[i]
    return x


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
    for ring in (rationals(), prime_field(7)):
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
    for ring in (rationals(), prime_field(7)):
        for _ in range(300):
            rows, rhs = random_system(rng, ring)
            expected = solve_field(ring, rows, rhs)
            system = list(zip(rows, rhs))
            for _ in range(rng.randint(1, 3)):
                zero_row = [ring.zero()] * len(rows[0])
                system.insert(rng.randint(0, len(system)), (zero_row, ring.zero()))
            rng.shuffle(system)
            new_rows, new_rhs = zip(*system)
            assert solve_field(ring, list(new_rows), list(new_rhs)) == expected


def test_elimination_applies_to_many_right_hand_sides():
    """One elimination answers every right-hand side of its matrix, sparse
    or dense, consistent or not, as a fresh solve_field would."""
    rng = random.Random(4242)
    for ring in (rationals(), prime_field(7)):
        outcomes = set()
        for _ in range(150):
            rows, _ = random_system(rng, ring)
            elimination = _eliminate_field(ring, [list(row) for row in rows])
            for _ in range(6):
                if rng.random() < 0.5:
                    x_true = [ring.from_int(rng.randint(-5, 5)) for _ in rows[0]]
                    rhs = [sum_row(ring, row, x_true) for row in rows]
                else:
                    rhs = [ring.from_int(rng.randint(-5, 5) if rng.random() < 0.5 else 0)
                           for _ in rows]
                sparse = [(i, v) for i, v in enumerate(rhs) if not ring.is_zero(v)]
                sol = _apply_elimination(ring, elimination, sparse)
                assert sol == solve_field(ring, rows, rhs) == dense_solve_field(ring, rows, rhs)
                outcomes.add(sol is None)
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
