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

Records are read through one table, ``_FIELDS``: each kind's constructor and
its fields in argument order, each with a parser that returns the value or
raises ParseError at ``where``, the field's path in the record.  An int is
never a bool, and a rational (``str_to_frac``) is an int or a "num/den"
string, never a float.  Lists read into tuples, and a nested record must be
of its field's kind.  A constructor's ValueError becomes a ParseError naming
the kind; a SingularMatrixError of dependent lines passes as it is.  A
certificate is certified again and a walk trace replayed from its config on
load, and a record that differs from its replay is refused.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .building import Frame, LatticeVertex, ResidueChamber
from .boundary import Flag, flag_echelon
from .padic_linalg import MR_EXACT_BOUND, SingularMatrixError, is_prime
from .dynamics import GroupElement, SrhCertificate, certify_srh
from .stochastics import WalkConfig, WalkStep, WalkTrace, run_walk

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


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
    """The rational of an int (never a bool) or a "num/den" string."""
    if type(s) is not int and not (type(s) is str and _RATIONAL.fullmatch(s)):
        raise ParseError(f"bad rational {s!r}: expected an integer or a "
                         '"num/den" string', where)
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}: {exc}", where) from exc


def matrix_to_obj(m):
    return [[frac_to_str(e) for e in row] for row in m]


def _vec_to_obj(v):
    return [frac_to_str(e) for e in v]


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


def _int(obj, where):
    if type(obj) is not int:
        raise ParseError(f"expected an integer, got {obj!r}", where)
    return obj


def _prime(obj, where):
    if _int(obj, where) >= MR_EXACT_BOUND or not is_prime(obj):
        raise ParseError(f"expected a prime, got {obj!r}", where)
    return obj


def _integer(obj, where):
    """An integer written as a rational."""
    x = str_to_frac(obj, where)
    if x.denominator != 1:
        raise ParseError(f"expected an integer, got {obj!r}", where)
    return x.numerator


def list_of(parse, n=None):
    """The parser of a list (of n entries, when n is given) into a tuple."""
    def parse_list(obj, where):
        if type(obj) is not list or n is not None and len(obj) != n:
            raise ParseError(f"expected a list of {n} entries" if n else
                             "expected a list", where)
        return tuple(parse(e, f"{where}[{i}]") for i, e in enumerate(obj))
    return parse_list


def _optional(parse):
    return lambda obj, where: None if obj is None else parse(obj, where)


def _record(kind):
    """The parser of a nested record of the given kind."""
    def parse_record(obj, where):
        if type(obj) is not dict or obj.get("kind") != kind:
            raise ParseError(f"expected a {kind} record", where)
        return _decode(obj, kind, where)
    return parse_record


obj_to_matrix = list_of(list_of(str_to_frac, 3), 3)
int_vector = list_of(_int, 3)


def _certificate(p, element, lines, lam, attracting, repelling):
    """The certificate of a record, which certify_srh must reproduce."""
    cert = SrhCertificate(p, element, lines, lam)
    if certify_srh(element, p) != cert or \
            (attracting, repelling) != (cert.attracting, cert.repelling):
        raise ValueError("not the certificate of its element")
    return cert


def _walk_trace(config, steps, final_position):
    """The trace of a record, which run_walk(config) must reproduce.  The
    step count is checked first, so a load runs at most one walk as long as
    the record itself."""
    if len(steps) != config.steps + 1:
        raise ValueError(f"{len(steps)} steps for a walk of {config.steps}")
    trace = run_walk(config)
    if trace != WalkTrace(config, steps, final_position):
        raise ValueError("not the trace of its config")
    return trace


# kind -> (constructor, {field: parser}), the fields in argument order
_FIELDS = {
    "vertex": (LatticeVertex.from_matrix, {"p": _prime, "matrix": obj_to_matrix}),
    "flag": (Flag.from_matrix, {"matrix": obj_to_matrix}),
    "frame": (Frame.from_lines, {"lines": obj_to_matrix}),
    "residue_chamber": (ResidueChamber.from_parts, {
        "p": _prime, "line": int_vector, "plane_normal": int_vector}),
    "group_element": (GroupElement.from_matrix, {
        "matrix": obj_to_matrix, "word": _optional(list_of(_int))}),
    "srh_certificate": (_certificate, {
        "p": _prime, "element": _record("group_element"),
        "lines": list_of(list_of(_integer, 3), 3), "lam": int_vector,
        "attracting": _record("flag"), "repelling": _record("flag")}),
    "walk_config": (WalkConfig, {
        "p": _prime, "generators": list_of(_record("group_element")),
        "weights": list_of(str_to_frac), "steps": _int, "seed": _int,
        "base_vertex": _record("vertex")}),
    "walk_step": (WalkStep, {
        "n": _int, "letter": _int, "theta": int_vector,
        "germ": _optional(_record("residue_chamber")), "germ_run": _int}),
    "walk_trace": (_walk_trace, {
        "config": _record("walk_config"), "steps": list_of(_record("walk_step")),
        "final_position": _record("vertex")}),
    "weyl_vector": (tuple, {"entries": int_vector}),
}


def _decode(obj, kind, where):
    """The value of a mapping of a known kind at path where (None at the top)."""
    make, fields = _FIELDS[kind]
    args = []
    for key, parse in fields.items():
        if key not in obj:
            raise ParseError(f"missing field {key!r} in {kind}", where)
        args.append(parse(obj[key], f"{where}.{key}" if where else key))
    try:
        return make(*args)
    except SingularMatrixError:
        raise
    except ValueError as exc:
        raise ParseError(f"bad {kind} record: {exc}", where) from exc


def from_obj(obj):
    """Inverse of to_obj; canonical forms are re-derived on load."""
    kind = obj.get("kind") if type(obj) is dict else None
    if type(kind) is not str or kind not in _FIELDS:
        raise ParseError(f"expected a record of a known kind, got {kind!r}")
    return _decode(obj, kind, None)
