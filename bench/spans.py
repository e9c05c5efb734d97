"""Span tracing of the sl3building modules from outside the library.

``Tracer.install`` replaces each function named in ``TARGETS`` by a timing
wrapper.  ``from .x import f`` copies the binding, so the wrapper goes into
every loaded ``sl3building.*`` namespace (and any extra namespace given)
that holds the original object; methods are wrapped on their class.  Each
call records one span: function, start, end, parent span and the item id
current at the time.  Spans live in flat arrays and are written out once,
when the run ends.

Only the functions of the layer table are wrapped.  The small leaves they
call hundreds of thousands of times per item (``ApartmentPairDistance.theta``,
``dominant``, ``weyl_dist2``, ``det3``) stay unwrapped, so their cost shows
as the self time of the wrapped caller rather than as wrapper overhead.
"""

from __future__ import annotations

import gzip
import statistics
import sys
import time
from array import array

# module -> wrapped functions, by qualified name inside the module
TARGETS = {
    "padic_linalg": ("valuation_int", "smith_exponents", "mat_mul",
                     "strip_p_content", "residue_germ_parts",
                     "lattice_canonical"),
    "stochastics": ("harmonic_sample", "basis_set_mass_estimate",
                    "count_at_vector_distance", "run_walk"),
    "boundary": ("Flag.from_matrix", "weyl_distance", "is_opposite",
                 "common_depth", "boundary_retraction", "sector_membership"),
    "dynamics": ("make_srh", "north_south_limit"),
    "building": ("vector_distance", "distance_to_apartment",
                 "LatticeVertex.from_matrix"),
    "triples": ("barycenter", "ApartmentPairDistance.dist2_to_apartment",
                "is_generic", "construct_generic"),
    "sqrtsum": ("SqrtSum.compare", "SqrtSum.enclosure"),
    "serialize": ("to_obj",),
}

# per-layer metrics beyond calls and self time: name -> unit
EXTRAS = {
    "padic_linalg.valuation_int.arg_bits_p50": "bits",
    "boundary.is_opposite.true_frac": "ratio",
    "dynamics.north_south_limit.flag_applies_per_call": "count",
    "triples.barycenter.pair_dist_calls_per_call": "count",
    "triples.is_generic.true_frac": "ratio",
    "sqrtsum.SqrtSum.enclosure.digits_max": "digits",
}

# functions whose result is a predicate: the true share is reported
_PREDICATES = ("boundary.is_opposite", "triples.is_generic")
# (ancestor, descendant) pairs whose descendant count per ancestor call is reported
_PER_CALL = {
    "dynamics.north_south_limit.flag_applies_per_call":
        ("dynamics.north_south_limit", "boundary.Flag.from_matrix"),
    "triples.barycenter.pair_dist_calls_per_call":
        ("triples.barycenter", "triples.ApartmentPairDistance.dist2_to_apartment"),
}


def span_names():
    return [f"{mod}.{qual}" for mod, quals in TARGETS.items() for qual in quals]


class Tracer:
    """Records spans of the wrapped functions; one tracer per process."""

    def __init__(self):
        self.names = span_names()
        self.fn = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.stack = [-1]
        self.current = [-1]  # item id; -1 while the workload is being set up
        self.arg_bits = array("i")
        self.true_calls = {name: 0 for name in _PREDICATES}
        self.digits_max = 0

    def set_item(self, i):
        self.current[0] = i

    # -- installation ------------------------------------------------------

    def install(self, extra_namespaces=()):
        namespaces = [m.__dict__ for name, m in sorted(sys.modules.items())
                      if name == "sl3building" or name.startswith("sl3building.")]
        namespaces += [m.__dict__ for m in extra_namespaces]
        for nid, full in enumerate(self.names):
            mod_name, qual = full.split(".", 1)
            module = sys.modules[f"sl3building.{mod_name}"]
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(raw.__func__, nid, full)))
                else:
                    setattr(cls, meth, self._wrap(raw, nid, full))
                continue
            orig = getattr(module, qual)
            wrapper = self._wrap(orig, nid, full)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is orig:
                        ns[key] = wrapper

    def _wrap(self, fn, nid, full):
        fns, starts, ends = self.fn, self.start, self.end
        parents, items, stack, current = self.parent, self.item, self.stack, self.current
        perf = time.perf_counter
        probe = self._probe(full)

        def wrapper(*args, **kwargs):
            sid = len(fns)
            fns.append(nid)
            parents.append(stack[-1])
            items.append(current[0])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf()
                starts[sid] = t0
                stack.pop()
            if probe is not None:
                probe(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def _probe(self, full):
        if full == "padic_linalg.valuation_int":
            bits = self.arg_bits
            return lambda args, result: bits.append(abs(args[0]).bit_length())
        if full in _PREDICATES:
            counts = self.true_calls

            def count_true(args, result):
                if result:
                    counts[full] += 1
            return count_true
        if full == "sqrtsum.SqrtSum.enclosure":
            def digits(args, result):
                self.digits_max = max(self.digits_max, args[1] if len(args) > 1 else 20)
            return digits
        return None

    # -- results -------------------------------------------------------------

    def metrics(self, run_s):
        """Per-layer metrics of the spans recorded during a run of run_s seconds."""
        n = len(self.fn)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        top = 0.0
        for k in range(n):
            par = self.parent[k]
            if par >= 0:
                child[par] += dur[k]
            else:
                top += dur[k]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for k in range(n):
            calls[self.fn[k]] += 1
            self_s[self.fn[k]] += dur[k] - child[k]
        out = {}
        module_self = {mod: 0.0 for mod in TARGETS}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
            module_self[name.split(".", 1)[0]] += self_s[nid]
        for mod, s in module_self.items():
            out[f"{mod}.self_s"] = s
        out["bench.self_s"] = run_s - top
        out["trace.run_s"] = run_s
        out["padic_linalg.valuation_int.arg_bits_p50"] = (
            statistics.median(self.arg_bits) if self.arg_bits else 0)
        for name in _PREDICATES:
            total = calls[self.names.index(name)]
            out[f"{name}.true_frac"] = self.true_calls[name] / total if total else 0.0
        for metric, (anc, desc) in _PER_CALL.items():
            out[metric] = self._per_call(anc, desc, calls)
        out["sqrtsum.SqrtSum.enclosure.digits_max"] = self.digits_max
        return out

    def _per_call(self, anc, desc, calls):
        anc_id, desc_id = self.names.index(anc), self.names.index(desc)
        if not calls[anc_id]:
            return 0.0
        found = 0
        for k in range(len(self.fn)):
            if self.fn[k] != desc_id:
                continue
            par = self.parent[k]
            while par >= 0 and self.fn[par] != anc_id:
                par = self.parent[par]
            found += par >= 0
        return found / calls[anc_id]

    def write_spans(self, path, t_origin):
        """One line per span: id, name, start, end (s from t_origin), parent, item."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,name,start_s,end_s,parent,item\n")
            for k in range(len(self.fn)):
                out.write(f"{k},{self.names[self.fn[k]]},{self.start[k] - t_origin:.7f},"
                          f"{self.end[k] - t_origin:.7f},{self.parent[k]},{self.item[k]}\n")
