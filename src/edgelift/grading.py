"""Weight systems attached to an edge direction.

Given a primitive integer direction c with mixed signs, a basis
xi_1, ..., xi_n of nonnegative integer vectors is constructed with the first
n-1 orthogonal to c.  These define the weight map

    omega(alpha) = (<xi_1, alpha>, ..., <xi_{n-1}, alpha>),

whose graded pieces are spanned by the lattice points of line segments
parallel to c clipped to the nonnegative orthant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import solve_integer
from .lp import EQ, LE, feasible_point
from .poly import exp_add, exp_dot, primitive_vector


class NoMixedSigns(ValueError):
    """The direction must have at least one positive and one negative entry."""


class NoIntegralPoint(ValueError):
    """The requested weight is not attained by any integer lattice point."""


@dataclass(frozen=True)
class WeightSystem:
    """Edge direction plus the orthogonal basis; the first n-1 basis vectors
    are orthogonal to the direction and define the weight map."""

    direction: tuple
    basis: tuple

    def __post_init__(self):
        object.__setattr__(self, "direction", tuple(self.direction))
        object.__setattr__(self, "basis", tuple(tuple(v) for v in self.basis))
        n = len(self.direction)
        if len(self.basis) != n:
            raise ValueError("basis must have n vectors")
        for v in self.basis[:-1]:
            if exp_dot(v, self.direction) != 0:
                raise ValueError("leading basis vectors must be orthogonal to the direction")
        if exp_dot(self.basis[-1], self.direction) == 0:
            raise ValueError("last basis vector must pair nontrivially with the direction")
        if any(any(x < 0 for x in v) for v in self.basis):
            raise ValueError("basis vectors must be nonnegative")
        if self.direction != primitive_vector(self.direction):
            raise ValueError("direction must be primitive")
        # Strict positivity of xi_0 holds whenever the direction is not
        # parallel to a coordinate axis, which mixed signs guarantee.
        if any(x <= 0 for x in self.xi0):
            raise AssertionError("xi_0 must be strictly positive")

    @property
    def nvars(self):
        return len(self.direction)

    @property
    def xi0(self):
        out = (0,) * self.nvars
        for v in self.basis[:-1]:
            out = exp_add(out, v)
        return out

    def weight(self, alpha):
        """The (n-1)-vector of scalar products; additive in alpha."""
        if len(alpha) != self.nvars:
            raise ValueError("exponent has wrong length")
        return tuple(exp_dot(v, alpha) for v in self.basis[:-1])

    def slice(self, w, anchor=None, max_last=None):
        """The graded piece of weight w: the lattice points of the line
        { omega = w } clipped to the nonnegative orthant, ordered by direction
        steps.  With ``max_last`` only the points whose last coordinate is at
        most max_last are built.  Raises NoIntegralPoint when the line has no
        lattice point at all (as opposed to an empty intersection with the
        orthant)."""
        w = tuple(w)
        if anchor is not None:
            anchor = tuple(anchor)
            if self.weight(anchor) != w:
                raise ValueError("anchor does not have the requested weight")
            base = anchor
        else:
            solved = solve_integer([list(v) for v in self.basis[:-1]], list(w))
            if solved is None:
                raise NoIntegralPoint(f"weight {w} not in the image of the lattice")
            base, kernel = solved
            assert len(kernel) == 1 and primitive_vector(kernel[0]) in (
                self.direction, tuple(-x for x in self.direction))
            base = tuple(base)
        lo, hi = _orthant_range(base, self.direction)
        if lo is not None and max_last is not None:
            # base[-1] + t*d <= max_last bounds t above for d > 0, below for
            # d < 0, and for d = 0 keeps the whole line or none of it.
            room, d = max_last - base[-1], self.direction[-1]
            if d > 0:
                hi = min(hi, room // d)
            elif d < 0:
                lo = max(lo, -(room // -d))
            elif room < 0:
                return GradedSlice(w, ())
        if lo is None or lo > hi:
            return GradedSlice(w, ())
        points = []
        point = tuple(b + lo * d for b, d in zip(base, self.direction))
        for _ in range(hi - lo + 1):
            points.append(point)
            point = exp_add(point, self.direction)
        return GradedSlice(w, tuple(points))

    def in_monoid(self, z):
        """Membership in the monoid M of weights: the line omega = z must
        contain an integer point alpha, and every nonnegative xi orthogonal to
        the direction must pair nonnegatively with alpha.  The second
        condition is independent of the choice of alpha on the line and is
        tested as infeasibility of { xi >= 0, <xi, c> = 0, <xi, alpha> <= -1 }."""
        z = tuple(z)
        solved = solve_integer([list(v) for v in self.basis[:-1]], list(z))
        if solved is None:
            return False
        alpha = solved[0]
        rows = [
            (list(self.direction), EQ, 0),
            (list(alpha), LE, -1),
        ]
        return feasible_point(self.nvars, rows) is None


@dataclass(frozen=True)
class GradedSlice:
    """Lattice points of one graded piece, in direction order; dim may be 0."""

    weight: tuple
    points: tuple

    @property
    def dim(self):
        return len(self.points)


def _orthant_range(base, direction):
    """Integer t-range with base + t*direction in the nonnegative orthant."""
    lo, hi = None, None
    for b, d in zip(base, direction):
        if d == 0:
            if b < 0:
                return None, 0
            continue
        # b + t*d >= 0: t >= ceil(-b/d) = -(b // d) for d > 0, and
        # t <= floor(-b/d) = b // -d for d < 0.
        if d > 0:
            t = -(b // d)
            lo = t if lo is None else max(lo, t)
        else:
            t = b // -d
            hi = t if hi is None else min(hi, t)
    # Mixed signs in the direction bound the interval on both sides.
    assert lo is not None and hi is not None
    return lo, hi


def basis_reduction_steps(c):
    """Run the basis construction, returning (basis, trace).

    The trace lists the pairing vector w after every replacement; the sum of
    absolute entries strictly decreases, which is the termination measure.

    Steps, with smallest-index tie-breaks:
      1. exactly two nonzero entries w_j, w_k with w_j + w_k = 0:
         replace xi_k by xi_k + xi_j and stop;
      2. two nonzero entries of opposite signs with |w_j| < |w_k|:
         replace xi_k by xi_k + xi_j;
      3. three nonzero entries with w_k = w_l = -w_j:
         replace xi_k by xi_k + xi_j.
    """
    c = tuple(c)
    n = len(c)
    if not (any(x > 0 for x in c) and any(x < 0 for x in c)):
        raise NoMixedSigns(f"direction {c} needs entries of both signs")
    basis = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    w = list(c)
    trace = [tuple(w)]

    def replace(k, j):
        basis[k] = exp_add(basis[k], basis[j])
        w[k] += w[j]
        trace.append(tuple(w))

    while True:
        nonzero = [i for i in range(n) if w[i]]
        if len(nonzero) == 2 and w[nonzero[0]] + w[nonzero[1]] == 0:
            replace(nonzero[1], nonzero[0])
            break
        done = False
        for j in nonzero:
            for k in nonzero:
                if k != j and w[j] * w[k] < 0 and abs(w[j]) < abs(w[k]):
                    replace(k, j)
                    done = True
                    break
            if done:
                break
        if done:
            continue
        # All nonzero entries now share one absolute value; pick w_k = w_l = -w_j.
        for j in nonzero:
            twins = [k for k in nonzero if k != j and w[k] == -w[j]]
            if len(twins) >= 2:
                replace(twins[0], j)
                done = True
                break
        if not done:
            raise AssertionError(f"basis reduction stuck at {w}")

    for earlier, later in zip(trace, trace[1:]):
        assert sum(abs(x) for x in later) < sum(abs(x) for x in earlier)

    keep = next(i for i in range(n) if w[i])
    ordered = [basis[i] for i in range(n) if i != keep] + [basis[keep]]
    return ordered, trace


def orthogonal_basis(c):
    """Weight system for a primitive direction with mixed signs."""
    basis, _ = basis_reduction_steps(c)
    return WeightSystem(tuple(c), tuple(basis))
