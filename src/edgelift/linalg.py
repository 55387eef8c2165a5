"""Exact linear-algebra helpers.

Two solvers back the rest of the package: row reduction over a coefficient
field with a fixed, deterministic pivoting order (columns left to right), and
an integer solver for A x = b based on column Hermite reduction with a
unimodular transform, which also reports a kernel basis.
"""

from __future__ import annotations


def xgcd(a, b):
    """(g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def solve_field(ring, rows, rhs):
    """Solve ``rows . x = rhs`` over a field ring.

    Pivot columns are taken left to right, pivot rows top-down (first nonzero
    entry).  Free variables are set to zero.  Returns the solution list or
    None when the system is inconsistent; ``rows`` is left as it is.
    """
    return _apply_elimination(ring, _eliminate_field(ring, [list(r) for r in rows]),
                              enumerate(rhs))


def _eliminate_field(ring, rows):
    """Row-reduce ``rows``, a list of row lists, in place, with solve_field's
    pivot order.

    Returns (nrows, ncols, pivots, ops): ``pivots`` lists the pivot column of
    each reduced row and ``ops`` holds, per pivot, the row swapped into place,
    the pivot's inverse and the (row, factor) eliminations, which
    _apply_elimination replays on a right-hand side.  Entries are reduced
    mod ring.modulus (none over Q) as they are formed, with the plain
    operators, so a zero test is a plain one; ``rows`` must hold reduced
    scalars.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    modulus = ring.modulus
    pivots = []
    ops = []
    r = 0
    for col in range(n):
        for pivot_row in range(r, m):
            if rows[pivot_row][col]:
                break
        else:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        # Rows r.. are zero left of col, so the pivot row's nonzero entries,
        # all from col on, are the only columns an elimination changes.
        pivot = rows[r]
        inv = ring.invert(pivot[col])
        support = [j for j in range(col, n) if pivot[j]]
        if modulus is None:
            for j in support:
                pivot[j] *= inv
        else:
            for j in support:
                pivot[j] = pivot[j] * inv % modulus
        eliminations = []
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != r:
                if modulus is None:
                    for j in support:
                        row[j] -= f * pivot[j]
                else:
                    for j in support:
                        row[j] = (row[j] - f * pivot[j]) % modulus
                eliminations.append((i, f))
        pivots.append(col)
        ops.append((pivot_row, inv, eliminations))
        r += 1
    return m, n, pivots, ops


def _apply_elimination(ring, elimination, rhs):
    """Solve an eliminated system for the right-hand side given as
    (row, value) pairs of reduced scalars, every other entry zero; None
    when inconsistent.  Over Q the arithmetic is Python's own and only the
    solution is normalized; modulo a modulus an entry is reduced only where
    it is tested or read."""
    m, n, pivots, ops = elimination
    modulus = ring.modulus
    b = [ring.zero()] * m
    for i, v in rhs:
        b[i] = v
    if modulus is None:
        for r, (pivot_row, inv, eliminations) in enumerate(ops):
            b[r], b[pivot_row] = b[pivot_row], b[r]
            if b[r]:
                v = b[r] = b[r] * inv
                for i, f in eliminations:
                    b[i] -= f * v
    else:
        for r, (pivot_row, inv, eliminations) in enumerate(ops):
            b[r], b[pivot_row] = b[pivot_row], b[r]
            if b[r]:
                v = b[r] = b[r] * inv % modulus
                if v:
                    for i, f in eliminations:
                        b[i] -= f * v
        b = [v % modulus for v in b]
    if any(b[len(pivots):]):
        return None
    x = [ring.zero()] * n
    for i, col in enumerate(pivots):
        x[col] = b[i] if modulus is not None else ring.normalize(b[i])
    return x


def solve_integer(rows, rhs):
    """Solve ``rows . x = rhs`` over the integers.

    Returns (particular_solution, kernel_basis) or None when no integral
    solution exists.  Column reduction with a tracked unimodular transform:
    column operations preserve A_orig . U = A_current, so a solution y of the
    reduced system maps back as U . y.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) for r in rows]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def combine(j1, j2, c11, c12, c21, c22):
        for mat in (a, u):
            for row in mat:
                v1, v2 = row[j1], row[j2]
                row[j1] = c11 * v1 + c12 * v2
                row[j2] = c21 * v1 + c22 * v2

    def swap(j1, j2):
        for mat in (a, u):
            for row in mat:
                row[j1], row[j2] = row[j2], row[j1]

    col = 0
    pivot_of_row = [None] * m
    for i in range(m):
        if col >= n:
            break
        while True:
            nz = [j for j in range(col, n) if a[i][j] != 0]
            if len(nz) <= 1:
                break
            j1, j2 = nz[0], nz[1]
            g, x, y = xgcd(a[i][j1], a[i][j2])
            # det of the 2x2 block is -(x*q2 + y*q1)* ... chosen unimodular:
            q1, q2 = a[i][j1] // g, a[i][j2] // g
            combine(j1, j2, x, y, -q2, q1)
        nz = [j for j in range(col, n) if a[i][j] != 0]
        if nz:
            if nz[0] != col:
                swap(nz[0], col)
            pivot_of_row[i] = col
            col += 1

    rank = col
    x_reduced = [0] * n
    for i in range(m):
        val = rhs[i] - sum(a[i][j] * x_reduced[j] for j in range(n) if a[i][j] and x_reduced[j])
        piv = pivot_of_row[i]
        if piv is None:
            if val != 0:
                return None
            continue
        if val % a[i][piv] != 0:
            return None
        x_reduced[piv] = val // a[i][piv]
    particular = [sum(u[i][j] * x_reduced[j] for j in range(n)) for i in range(n)]
    kernel = [tuple(u[i][j] for i in range(n)) for j in range(rank, n)]
    return particular, kernel
