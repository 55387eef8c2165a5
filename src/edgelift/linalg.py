"""Exact linear-algebra helpers.

One field elimination and one integer solver back the rest of the package.
The field elimination grows a system by columns on the right, each column
replayed through the operations so far and pivoted (pivot columns left to
right, pivot rows first nonzero top-down), so an extended system continues
its elimination rather than redoing it; a right-hand side is solved by
replaying the operations on it.  The integer solver handles A x = b by column
Hermite reduction with a unimodular transform, and also reports a kernel
basis.
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
    """Solve ``rows . x = rhs`` over a field ring, in reduced scalars.

    The columns of ``rows`` extend the empty elimination (pivot columns left
    to right, pivot rows the first nonzero entry top-down), and ``rhs`` is
    replayed through it.  Free variables are set to zero.  Returns the
    solution list or None when the system is inconsistent; ``rows`` is left
    as it is.
    """
    m = len(rows)
    columns = [list(enumerate(column)) for column in zip(*rows)]
    _, n, pivots, ops = _extend_elimination(ring, (m, 0, [], []), columns, m)
    b = _replay(ring, ops, list(rhs))
    if any(b[len(ops):]):
        return None
    x = [0] * n
    for col, v in zip(pivots, b):
        x[col] = ring.normalize(v)
    return x


def _replay(ring, ops, b):
    """Apply the row operations ``ops`` of an elimination to b, a list of
    reduced scalars, and return the result: its entry i < len(ops) is the
    solution at the i-th pivot column, and the system is consistent when
    every later entry is zero.  The arithmetic is the plain operators', so
    over Q an entry comes back an int or a Fraction, not yet in canonical
    form; modulo a modulus an entry is reduced only where it is tested, and
    at the end."""
    modulus = ring.modulus
    if modulus is None:
        for r, (pivot_row, inv, eliminations) in enumerate(ops):
            b[r], b[pivot_row] = b[pivot_row], b[r]
            if b[r]:
                v = b[r] = b[r] * inv
                for i, f in eliminations:
                    b[i] -= f * v
        return b
    for r, (pivot_row, inv, eliminations) in enumerate(ops):
        b[r], b[pivot_row] = b[pivot_row], b[r]
        if b[r]:
            v = b[r] = b[r] * inv % modulus
            if v:
                for i, f in eliminations:
                    b[i] -= f * v
    return [v % modulus for v in b]


def _extend_elimination(ring, elimination, columns, m):
    """The elimination of a system extended on the right by ``columns``,
    each a list of (row, value) pairs of reduced scalars, over m rows; the
    old system's rows are the first ones, and a new row is zero in its
    columns.  ``elimination`` is left as it is.

    Pivots run left to right, so the old pivots and operations are the
    first ones of the extended system: each new column is replayed through
    every operation so far and pivots at its first nonzero entry below the
    pivot rows so far.  Extending the empty elimination (m, 0, [], []) by a
    system's columns, in one call or several, eliminates the system.
    ``ops`` holds, per pivot, the row swapped into place, the pivot's
    inverse and the (row, factor) eliminations that _replay applies."""
    _, n, pivots, ops = elimination
    pivots, ops = list(pivots), list(ops)
    for column in columns:
        b = [0] * m
        for i, v in column:
            b[i] = v
        b = _replay(ring, ops, b)
        r = len(ops)
        for pivot_row in range(r, m):
            if b[pivot_row]:
                b[r], b[pivot_row] = b[pivot_row], b[r]
                pivots.append(n)
                ops.append((pivot_row, ring.invert(b[r]),
                            [(i, f) for i, f in enumerate(b) if f and i != r]))
                break
        n += 1
    return m, n, pivots, ops


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
