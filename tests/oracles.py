"""Independent brute-force oracles for the test suite.

The geometry oracles are pure integer arithmetic (cofactor determinants and
extreme-ray enumeration), deliberately sharing no code with the package's
rational simplex, so the two classifications check each other.

A support point s is a vertex of conv(S) + orthant iff some strictly positive
xi separates it: <xi, u - s> > 0 for every other support point.  A vertex
pair (a, b) spans a compact edge iff some strictly positive xi vanishes on
b - a and is strictly positive on u - a for every third vertex.  The edge is
loose iff no strictly positive xi vanishes on both b - a and v - a for some
third vertex v.  Each question asks for a point of a polyhedral cone with
prescribed strict inequalities; the cone is pointed (it sits inside the
orthant), so the sum of its extreme rays is strict on a constraint exactly
when some ray is, and the rays are enumerated from (n-1)-subsets of active
constraints via cofactor kernels.

The field-solve reference, dense_solve_field, is a Gauss-Jordan elimination
that rewrites whole rows through the ring's scalar operations; it shares no
code with the package's elimination, which grows a system by columns and
replays its row operations on a right-hand side.
"""

from itertools import combinations


def int_det(matrix):
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    sign = 1
    for j in range(n):
        if matrix[0][j]:
            minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
            total += sign * matrix[0][j] * int_det(minor)
        sign = -sign
    return total


def kernel_vector(rows, n):
    """Cofactor kernel of (n-1) integer rows; zero vector when rank < n-1."""
    assert len(rows) == n - 1
    out = []
    sign = 1
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in rows]
        out.append(sign * int_det(minor))
        sign = -sign
    return out


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def independent_rows(rows):
    """A maximal linearly independent subset of integer rows, in order.

    Each kept row is also stored reduced (fraction-free) against the rows
    kept before it, so its first nonzero entry sits in a column where they
    all vanish; a row that reduces to zero depends on them."""
    kept, reduced = [], []
    for row in rows:
        r = list(row)
        for b in reduced:
            p = next(j for j, x in enumerate(b) if x)
            if r[p]:
                r = [b[p] * x - r[p] * y for x, y in zip(r, b)]
        if any(r):
            kept.append(row)
            reduced.append(r)
    return kept


def cone_strict_point_exists(eqs, ineqs, strict, n):
    """Does { x : eqs.x = 0, ineqs.x >= 0 } contain a point strict on every
    row listed in ``strict`` (indices into ineqs)?  Rays come from n - 1
    independent rows, so the equations are first cut to an independent
    subset, which leaves the cone unchanged."""
    eqs = independent_rows(eqs)
    need = n - 1 - len(eqs)
    if need < 0:
        return False
    rays = []
    for combo in combinations(range(len(ineqs)), need):
        mat = [list(e) for e in eqs] + [list(ineqs[i]) for i in combo]
        v = kernel_vector(mat, n)
        if not any(v):
            continue
        for cand in (v, [-x for x in v]):
            if all(_dot(row, cand) >= 0 for row in ineqs):
                rays.append(cand)
                break
    if not rays:
        return False
    return all(any(_dot(ineqs[i], ray) > 0 for ray in rays) for i in strict)


def _orthant_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def oracle_vertices(support, n):
    support = [tuple(p) for p in support]
    verts = []
    for s in support:
        ineqs = _orthant_rows(n) + [
            [u[j] - s[j] for j in range(n)] for u in support if u != s]
        if cone_strict_point_exists([], ineqs, range(len(ineqs)), n):
            verts.append(s)
    return sorted(verts, key=lambda e: (sum(e), e))


def oracle_is_edge(a, b, vertices, n):
    eqs = [[b[j] - a[j] for j in range(n)]]
    others = [v for v in vertices if v not in (a, b)]
    ineqs = _orthant_rows(n) + [[u[j] - a[j] for j in range(n)] for u in others]
    return cone_strict_point_exists(eqs, ineqs, range(len(ineqs)), n)


def oracle_is_loose(a, b, vertices, n):
    others = [v for v in vertices if v not in (a, b)]
    for v in others:
        eqs = [[b[j] - a[j] for j in range(n)],
               [v[j] - a[j] for j in range(n)]]
        ineqs = _orthant_rows(n) + [
            [u[j] - a[j] for j in range(n)] for u in others if u != v]
        # Strictness only on the orthant rows: a compact face needs xi > 0.
        if cone_strict_point_exists(eqs, ineqs, range(n), n):
            return False
    return True


def oracle_edges(vertices, n):
    out = []
    vs = sorted(vertices, key=lambda e: (sum(e), e))
    for i, a in enumerate(vs):
        for b in vs[i + 1:]:
            if oracle_is_edge(a, b, vs, n):
                out.append((a, b))
    return sorted(out)


def box_slice_points(basis_rows, w, bound):
    """All orthant lattice points alpha with pairing vector w, |alpha| small.

    Brute-force box enumeration; usable because sum(w) bounds every
    coordinate when the weight vectors are the package's (entries >= 1 after
    summing), so callers pass a safe ``bound``.
    """
    n = len(basis_rows[0])
    out = []

    def rec(prefix):
        if len(prefix) == n:
            if all(_dot(row, prefix) == wi for row, wi in zip(basis_rows, w)):
                out.append(tuple(prefix))
            return
        for value in range(bound + 1):
            rec(prefix + [value])

    rec([])
    return sorted(out, key=lambda e: (sum(e), e))


def dense_solve_field(ring, rows, rhs):
    """Reference Gauss-Jordan elimination that rewrites whole rows, with the
    pivot order of linalg.solve_field: columns left to right, first nonzero
    row.  Free variables are zero; None when the system is inconsistent."""
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
