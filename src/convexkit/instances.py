"""JSON encoding and decoding of function and problem instances.

Function documents:

    {"type": "max_affine", "pieces": [{"a": [...], "b": 0.0}, ...]}
    {"type": "quadratic", "Q": [[...]], "c": [...], "r0": 0.0}
    {"type": "sum", "parts": [...]}

Problem documents add keys next to (or instead of) a bare function:

    {"f": <function>, "S": [[...]], "zeta": [...]}          restriction
    {"marginal": {"f": <function>, "S": [[...]]}}            partial minimization
    {"f": <function>, "domain": {"inequalities": [{"g": [...], "h": ...}],
                                 "box_radius": R}}           constrained argmin

Matrices are dense row-major lists of rows.
"""

from __future__ import annotations

import numpy as np

from .functions import MaxAffine, Quadratic, SumFunction, max_affine, quadratic
from .linalg import as_matrix, as_vector


def function_to_json(f) -> dict:
    if isinstance(f, MaxAffine):
        return {
            "type": "max_affine",
            "pieces": [{"a": a, "b": b} for a, b in zip(f.matrix.tolist(), f.offsets.tolist())],
        }
    if isinstance(f, Quadratic):
        return {
            "type": "quadratic",
            "Q": f.Q.tolist(),
            "c": f.c.tolist(),
            "r0": f.r0,
        }
    if isinstance(f, SumFunction):
        return {"type": "sum", "parts": [function_to_json(p) for p in f.parts]}
    raise TypeError(f"not a convex function: {type(f).__name__}")


def function_from_json(doc: dict):
    if not isinstance(doc, dict) or "type" not in doc:
        raise ValueError("function document must be an object with a 'type' key")
    kind = doc["type"]
    if kind == "max_affine":
        return max_affine((p["a"], p["b"]) for p in doc["pieces"])
    if kind == "quadratic":
        Q = doc["Q"]  # a 0 x 0 matrix is written as []
        return quadratic(np.zeros((0, 0)) if np.shape(Q) == (0,) else Q, doc.get("c"), doc.get("r0", 0.0))
    if kind == "sum":
        parts = tuple(function_from_json(p) for p in doc["parts"])
        if not parts:
            raise ValueError("sum needs at least one part")
        return SumFunction(parts[0].dim, parts)
    raise ValueError(f"unknown function type: {kind!r}")


def matrix_to_json(M) -> list:
    return as_matrix(M).tolist()


def vector_to_json(v) -> list:
    return as_vector(v).tolist()


def domain_to_json(inequalities, box_radius: float) -> dict:
    return {
        "inequalities": [
            {"g": vector_to_json(g), "h": float(h)} for g, h in inequalities
        ],
        "box_radius": float(box_radius),
    }


def domain_from_json(doc: dict) -> tuple[list, float]:
    """The inequality rows and box radius; PolyhedralDomain checks their dimensions."""
    if not isinstance(doc, dict):
        raise ValueError("domain document must be an object")
    rows = [(as_vector(item["g"]), float(item["h"])) for item in doc.get("inequalities", [])]
    return rows, float(doc["box_radius"])
