"""Newton polyhedra, loose edges, and truncated factorization lifting."""

from .coeffs import (NotInvertible, RingDescriptor, prime_field, rationals,
                     residue_ring)
from .expr import VarTable, parse, render
from .grading import GradedSlice, WeightSystem, orthogonal_basis
from .lift import (EdgePrimePower, EdgeRestriction, InvalidSplit, LiftCertificate,
                   NoLooseEdge, ReducibleWithFactors, SplitRequest,
                   edge_restriction, lift_factorization, reducibility_witness,
                   restrict, solve_cofactor)
from .newton import Edge, NewtonPolyhedron, build, face_of, is_loose, is_polygonal, minkowski
from .poly import SparsePoly, WeightedBound
from .weier import (NoCoprimeSplit, NoLooseEdgeInfo, PadicFactors, PadicPoly,
                    WeierstrassInput, descendant_loose_edges, lift_monic,
                    padic_newton_factor, poly_divide, weierstrass_normalize)

__version__ = "0.1.0"

__all__ = [
    "Edge",
    "EdgePrimePower",
    "EdgeRestriction",
    "GradedSlice",
    "InvalidSplit",
    "LiftCertificate",
    "NewtonPolyhedron",
    "NoCoprimeSplit",
    "NoLooseEdge",
    "NoLooseEdgeInfo",
    "NotInvertible",
    "PadicFactors",
    "PadicPoly",
    "ReducibleWithFactors",
    "RingDescriptor",
    "SparsePoly",
    "SplitRequest",
    "VarTable",
    "WeierstrassInput",
    "WeightSystem",
    "WeightedBound",
    "build",
    "descendant_loose_edges",
    "edge_restriction",
    "face_of",
    "is_loose",
    "is_polygonal",
    "lift_factorization",
    "lift_monic",
    "minkowski",
    "orthogonal_basis",
    "padic_newton_factor",
    "parse",
    "poly_divide",
    "prime_field",
    "rationals",
    "reducibility_witness",
    "render",
    "residue_ring",
    "restrict",
    "solve_cofactor",
    "weierstrass_normalize",
]
