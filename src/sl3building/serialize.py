"""Round-trip text serialization of the domain values.

Rationals travel as "num/den" strings (plain integers stay bare), matrices as
row-major nested lists, and every composite value as a kind-tagged mapping.
Vertices and flags are serialized in canonical form only, so
from_obj(to_obj(v)) == v holds exactly.

Every rational in a record is written by one integer formatter,
``_ratio_str(n, d)``, which prints n/d in lowest terms with the sign on the
numerator, as ``str(Fraction(n, d))`` would.  Values held in integers are
written from them with no ``Fraction`` built: a group element from num and
den, a flag from ``boundary.flag_echelon`` of its line and normal.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .building import Frame, LatticeVertex, ResidueChamber
from .boundary import Flag, flag_echelon
from .padic_linalg import is_prime
from .dynamics import GroupElement, SrhCertificate, certify_srh
from .stochastics import WalkConfig, WalkStep, WalkTrace


class ParseError(ValueError):
    def __init__(self, message, where=None):
        super().__init__(f"{message}" + (f" (at {where})" if where else ""))
        self.where = where


def _ratio_str(n, d):
    """The text of n/d for integers n and d != 0, in lowest terms."""
    if d == 1:
        return str(n)
    g = gcd(n, d)
    if d < 0:
        g = -g
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def frac_to_str(x):
    if type(x) is int:
        return str(x)
    f = Fraction(x)
    return _ratio_str(f.numerator, f.denominator)


def str_to_frac(s, where=None):
    if isinstance(s, bool):
        raise ParseError(f"bad rational {s!r}: a boolean", where)
    try:
        return Fraction(s)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}: {exc}", where) from exc


def matrix_to_obj(m):
    return [[frac_to_str(e) for e in row] for row in m]


def obj_to_matrix(obj, where="matrix"):
    if not (isinstance(obj, list) and len(obj) == 3
            and all(isinstance(row, list) and len(row) == 3 for row in obj)):
        raise ParseError("matrix must be a list of three rows of three entries",
                         where)
    rows = []
    for i, row in enumerate(obj):
        rows.append(tuple(str_to_frac(e, f"{where}[{i}][{j}]")
                          for j, e in enumerate(row)))
    return tuple(rows)


def _vec_to_obj(v):
    return [frac_to_str(e) for e in v]


def _obj_to_vec(obj, where):
    """A vector of three rationals, or ParseError."""
    if type(obj) is not list or len(obj) != 3:
        raise ParseError(f"bad vector {obj!r}: expected three entries", where)
    return tuple(str_to_frac(e, where) for e in obj)


def _obj_to_int_vec(obj, where):
    vec = _obj_to_vec(obj, where)
    if any(e.denominator != 1 for e in vec):
        raise ParseError(f"bad integer vector {obj!r}", where)
    return tuple(e.numerator for e in vec)


def _obj_to_vecs3(obj, parse, where):
    """Three vectors, each read by parse, or ParseError."""
    if type(obj) is not list or len(obj) != 3:
        raise ParseError("expected a list of three vectors", where)
    return tuple(parse(v, where) for v in obj)


def to_obj(value):
    """Kind-tagged JSON-able form of a domain value."""
    if isinstance(value, LatticeVertex):
        return {"kind": "vertex", "p": value.p, "matrix": matrix_to_obj(value.matrix)}
    if isinstance(value, Flag):
        l, a, u, b, r = flag_echelon(value.line, value.plane_normal)
        return {"kind": "flag", "matrix": [
            [_ratio_str(l[i], a), _ratio_str(u[i], b), "1" if i == r else "0"]
            for i in range(3)]}
    if isinstance(value, Frame):
        return {"kind": "frame", "lines": [_vec_to_obj(v) for v in value.lines]}
    if isinstance(value, ResidueChamber):
        return {"kind": "residue_chamber", "p": value.p,
                "line": list(value.line), "plane_normal": list(value.plane_normal)}
    if isinstance(value, GroupElement):
        den = value.den
        return {"kind": "group_element",
                "matrix": [[_ratio_str(e, den) for e in row] for row in value.num],
                "word": list(value.word) if value.word is not None else None}
    if isinstance(value, SrhCertificate):
        return {"kind": "srh_certificate", "p": value.p,
                "element": to_obj(value.element),
                "lines": [_vec_to_obj(v) for v in value.lines],
                "lam": list(value.lam),
                "attracting": to_obj(value.attracting),
                "repelling": to_obj(value.repelling)}
    if isinstance(value, WalkConfig):
        return {"kind": "walk_config", "p": value.p,
                "generators": [to_obj(g) for g in value.generators],
                "weights": [frac_to_str(w) for w in value.weights],
                "steps": value.steps, "seed": value.seed,
                "base_vertex": to_obj(value.base_vertex)}
    if isinstance(value, WalkStep):
        return {"kind": "walk_step", "n": value.n, "letter": value.letter,
                "theta": list(value.theta),
                "germ": to_obj(value.germ) if value.germ else None,
                "germ_run": value.germ_run}
    if isinstance(value, WalkTrace):
        return {"kind": "walk_trace", "config": to_obj(value.config),
                "steps": [to_obj(s) for s in value.steps],
                "final_position": to_obj(value.final_position)}
    if isinstance(value, tuple):
        return {"kind": "weyl_vector", "entries": list(value)}
    raise TypeError(f"no serialization for {type(value).__name__}")


def from_obj(obj):
    """Inverse of to_obj; canonical forms are re-derived on load."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError("expected a kind-tagged mapping")
    kind = obj["kind"]
    try:
        if kind == "vertex":
            return LatticeVertex.from_matrix(obj["p"], obj_to_matrix(obj["matrix"]))
        if kind == "flag":
            return Flag.from_matrix(obj_to_matrix(obj["matrix"]))
        if kind == "frame":
            return Frame.from_lines(
                _obj_to_vecs3(obj["lines"], _obj_to_vec, "frame.lines"))
        if kind == "residue_chamber":
            return ResidueChamber.from_parts(obj["p"], tuple(obj["line"]),
                                             tuple(obj["plane_normal"]))
        if kind == "group_element":
            word = tuple(obj["word"]) if obj.get("word") is not None else None
            return GroupElement.from_matrix(obj_to_matrix(obj["matrix"]), word=word)
        if kind == "srh_certificate":
            p, element = obj["p"], from_obj(obj["element"])
            if not (type(p) is int and is_prime(p)
                    and isinstance(element, GroupElement)):
                raise ParseError("expected a prime p and a group element", kind)
            cert = SrhCertificate(
                p, element, _obj_to_vecs3(obj["lines"], _obj_to_int_vec, "lines"),
                _obj_to_int_vec(obj["lam"], "srh_certificate.lam"))
            # the record's lines and lam must be those certify_srh finds
            if certify_srh(element, p) != cert:
                raise ParseError("not the certificate of its element", kind)
            return cert
        if kind == "walk_config":
            for k in ("generators", "weights"):
                if type(obj[k]) is not list:
                    raise ParseError(f"{k} must be a list", kind)
            try:
                return WalkConfig(
                    obj["p"], tuple(from_obj(g) for g in obj["generators"]),
                    tuple(str_to_frac(w, "weights") for w in obj["weights"]),
                    obj["steps"], obj["seed"], from_obj(obj["base_vertex"]))
            except ValueError as exc:  # WalkConfig's messages name the field
                raise ParseError(str(exc), kind) from exc
        if kind == "walk_step":
            germ = from_obj(obj["germ"]) if obj.get("germ") else None
            theta = obj["theta"]
            if type(theta) is not list or len(theta) != 3 or \
                    any(type(e) is not int for e in theta):
                raise ParseError(f"bad theta {theta!r}: expected three "
                                 "integers", "walk_step.theta")
            return WalkStep(obj["n"], obj["letter"], tuple(theta),
                            germ, obj["germ_run"])
        if kind == "walk_trace":
            return WalkTrace(from_obj(obj["config"]),
                             tuple(from_obj(s) for s in obj["steps"]),
                             from_obj(obj["final_position"]))
        if kind == "weyl_vector":
            return tuple(obj["entries"])
    except KeyError as exc:
        raise ParseError(f"missing field {exc} in {kind}") from exc
    raise ParseError(f"unknown kind {kind!r}")
