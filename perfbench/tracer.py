"""Tracing of `azumaya` from the benchmark's own process.

`Tracer.install()` replaces every function and method defined in the
traced modules with a wrapper that records, per call:

* a span whenever control enters a module from a different module (or from
  the harness): module, start, end and the index of the enclosing span;
* a call count per function;
* busy time per named function group, counted only on the outermost entry
  into the group, so recursion and nesting are not double counted;
* counts taken from arguments and results (`HOOKS`).

Because `from .x import f` copies the binding, every module namespace that
holds a traced object gets the wrapper, not only the defining module.
`uninstall()` puts every original object back; the same tracer can be
installed again and keeps adding to its totals.
"""

from __future__ import annotations

import sys
import types
from array import array
from time import perf_counter

MODULES = ("cli", "suites", "weyl", "diffop", "spectral", "linalg", "poly",
           "twisted", "zmod")

# Named time/call groups: metric prefix -> functions ("module:qualname").
GROUPS = {
    "cli.parse": ("cli:build_parser", "cli:_Parser.parse_args", "cli:_payload_from_args"),
    "cli.serialize": ("cli:_emit",),
    "suites.gen": ("suites:rand_fraction", "suites:rand_poly", "suites:rand_poly_matrix",
                   "suites:rand_weyl", "suites:rand_position_poly",
                   "suites:rand_discriminant_zero", "suites:rand_commuting_pair",
                   "suites:rand_cochain1"),
    "weyl.mul": ("weyl:weyl_mul",),
    "weyl.parse": ("weyl:parse_weyl",),
    "weyl.act": ("weyl:act_on_polynomial",),
    "weyl.reduce": ("weyl:reduce_to_scalar",),
    "weyl.fourier": ("weyl:fourier",),
    "diffop.mixed_mul": ("diffop:mixed_mul",),
    "diffop.solve": ("diffop:solve_commutation",),
    "diffop.pushforward": ("diffop:pushforward_report",),
    "spectral.morphism": ("spectral:higgs_to_morphism",),
    "spectral.cover": ("spectral:spectral_cover",),
    "spectral.probe": ("spectral:LambdaFamily.probe",),
    "spectral.curvature": ("spectral:curvature",),
    "linalg.rref": ("linalg:rref",),
    "linalg.char_poly": ("linalg:char_poly",),
    "linalg.min_poly": ("linalg:min_poly",),
    "linalg.span": ("linalg:SpanBasis.add", "linalg:SpanBasis.contains"),
    "linalg.squarefree": ("linalg:squarefree_in_v",),
    "linalg.divides": ("linalg:divides_in_v",),
    "poly.dense_gcd": ("poly:dense_gcd",),
    "poly.parse": ("poly:parse_poly",),
    "twisted.cocycle_check": ("twisted:check_2cocycle",),
    "twisted.is_coboundary": ("twisted:is_coboundary",),
    "twisted.coboundary": ("twisted:coboundary",),
    "twisted.gluing_check": ("twisted:twisted_gluing_check",),
    "twisted.endomorphism": ("twisted:endomorphism_azumaya",),
    "twisted.hilbert": ("twisted:hilbert_poly", "twisted:morphism_hilbert_poly"),
    "twisted.codec": ("twisted:group_from_json", "twisted:cochain2_from_json",
                      "twisted:cochain1_from_json", "twisted:cochain2_to_json",
                      "twisted:cochain1_to_json", "twisted:bundle_from_json"),
    "zmod.snf": ("zmod:smith_normal_form",),
}

# Call counts of single functions: metric -> function.
CALLS = {
    "weyl.mul_calls": "weyl:weyl_mul",
    "diffop.mixed_mul_calls": "diffop:mixed_mul",
    "linalg.rref_calls": "linalg:rref",
    "linalg.span_add_calls": "linalg:SpanBasis.add",
    "poly.multipoly_new": "poly:MultiPoly.__init__",
    "poly.ratfunc_new": "poly:RatFunc.__init__",
    "poly.dense_gcd_calls": "poly:dense_gcd",
    "twisted.mat_mul_calls": "twisted:mat_mul",
    "zmod.snf_calls": "zmod:smith_normal_form",
}

# Methods that must never be replaced (object protocol, immutability guards).
_SKIP = {"__setattr__", "__delattr__", "__getattribute__", "__getattr__", "__new__",
         "__init_subclass__", "__class_getitem__", "__set_name__", "__dict__",
         "__weakref__"}


def _bits(x) -> int:
    """Largest numerator/denominator bit length inside an rref entry."""
    num = getattr(x, "numerator", None)
    if num is not None:
        return max(num.bit_length(), x.denominator.bit_length())
    best = 0
    for part in (getattr(x, "num", None), getattr(x, "den", None)):
        if part is not None:
            for c in part.terms.values():
                best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


def _hook_weyl_mul(counts, args, kwargs, res):
    counts["weyl.mul_term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _hook_rref(counts, args, kwargs, res):
    rows = args[0]
    counts["linalg.rref_cells"] += len(rows) * (len(rows[0]) if rows else 0)
    bits = max((_bits(x) for row in res[0] for x in row), default=0)
    if bits > counts["linalg.rref_max_bits"]:
        counts["linalg.rref_max_bits"] = bits


def _hook_snf(counts, args, kwargs, res):
    mat = args[0]
    counts["zmod.snf_cells"] += len(mat) * (len(mat[0]) if mat else 0)


def _hook_solve(counts, args, kwargs, res):
    a = args[0]
    bound = args[2] if len(args) > 2 else kwargs.get("deg_bound")
    if bound is None:
        bound = 2 * max((sum(e) for p in a.entries for e in p.terms), default=0) + 2
    counts["diffop.solve_unknowns"] += a.rows * a.rows * (bound + 1)


def _hook_suite(counts, args, kwargs, res):
    counts["suites.cases"] += args[2] if len(args) > 2 else kwargs["count"]


def _hook_serialize(counts, args, kwargs, res):
    counts["cli.report_bytes"] += len(res)


HOOKS = {
    "weyl:weyl_mul": _hook_weyl_mul,
    "linalg:rref": _hook_rref,
    "zmod:smith_normal_form": _hook_snf,
    "diffop:solve_commutation": _hook_solve,
    "suites:run_suite": _hook_suite,
    "cli:serialize_report": _hook_serialize,
}

COUNT_METRICS = ("weyl.mul_term_pairs", "linalg.rref_cells", "linalg.rref_max_bits",
                 "zmod.snf_cells", "diffop.solve_unknowns", "suites.cases",
                 "cli.report_bytes")


class Tracer:
    """Wraps the `azumaya` modules while installed; aggregates on the fly
    and keeps the module spans in compact arrays."""

    def __init__(self, package: str = "azumaya"):
        self.package = package
        self.mods = [sys.modules[f"{package}.{m}"] for m in MODULES]
        self.keys = []              # function id -> "module:qualname"
        self.calls = []             # function id -> call count
        self.group_names = list(GROUPS)
        self.group_time = [0.0] * len(GROUPS)
        self.group_depth = [0] * len(GROUPS)
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        # spans: module index, start, end, parent span index (-1 at top)
        self.span_mod = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.mod_busy = [0.0] * len(MODULES)
        self.mod_self = [0.0] * len(MODULES)
        self.mod_depth = [0] * len(MODULES)
        self._open = []             # [module index, span index, start, child time]
        self._patches = None

    # -- installation -------------------------------------------------------

    def _targets(self):
        """Yield (module index, qualname, owner, attribute name, raw object)."""
        for mi, mod in enumerate(self.mods):
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    yield mi, name, mod, name, obj
                elif isinstance(obj, type):
                    for attr, raw in list(vars(obj).items()):
                        if attr in _SKIP:
                            continue
                        func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                        if isinstance(func, types.FunctionType):
                            yield mi, f"{name}.{attr}", obj, attr, raw
            if MODULES[mi] == "cli":
                # argparse's inherited parse_args runs on every request
                parser = mod._Parser
                yield mi, "_Parser.parse_args", parser, "parse_args", parser.parse_args

    def _build(self):
        """Create every wrapper once: (owner, attribute, original, wrapper, owned)."""
        group_of = {f: gi for gi, g in enumerate(self.group_names) for f in GROUPS[g]}
        patches, replaced = [], {}
        for mi, qual, owner, attr, raw in self._targets():
            key = f"{MODULES[mi]}:{qual}"
            fid = len(self.keys)
            self.keys.append(key)
            self.calls.append(0)
            func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            new = self._wrap(func, fid, mi, group_of.get(key), HOOKS.get(key))
            if isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(new)
            else:
                replaced[id(raw)] = (raw, new)
            patches.append((owner, attr, raw, new, attr in vars(owner)))
        # rebind copies made by `from .x import f` in every package module
        for mod in [m for n, m in sys.modules.items()
                    if n == self.package or n.startswith(self.package + ".")]:
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patches.append((mod, name, obj, hit[1], True))
        return patches

    def install(self):
        if self._patches is None:
            self._patches = self._build()
        for owner, attr, _, new, _ in self._patches:
            setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, raw, _, owned in reversed(self._patches or ()):
            if owned:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, fid, mi, gi, hook):
        calls, opened = self.calls, self._open
        group_time, group_depth = self.group_time, self.group_depth
        mod_depth, mod_busy, mod_self = self.mod_depth, self.mod_busy, self.mod_self
        span_mod, span_start = self.span_mod, self.span_start
        span_end, span_parent = self.span_end, self.span_parent
        counts = self.counts

        def wrapper(*args, **kwargs):
            calls[fid] += 1
            frame = None
            if not opened or opened[-1][0] != mi:
                sid = len(span_start)
                span_mod.append(mi)
                span_parent.append(opened[-1][1] if opened else -1)
                span_end.append(0.0)
                frame = [mi, sid, 0.0, 0.0]
                opened.append(frame)
                mod_depth[mi] += 1
            outer = gi is not None and group_depth[gi] == 0
            if gi is not None:
                group_depth[gi] += 1
            start = perf_counter()
            if frame is not None:
                frame[2] = start
                span_start.append(start)
            try:
                res = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if gi is not None:
                    group_depth[gi] -= 1
                    if outer:
                        group_time[gi] += end - start
                if frame is not None:
                    opened.pop()
                    dur = end - start
                    span_end[frame[1]] = end
                    mod_depth[mi] -= 1
                    if mod_depth[mi] == 0:
                        mod_busy[mi] += dur
                    mod_self[mi] += dur - frame[3]
                    if opened:
                        opened[-1][3] += dur
            if hook is not None:
                hook(counts, args, kwargs, res)
            return res

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results ---------------------------------------------------------------

    def calls_of(self, key: str) -> int:
        return sum(c for k, c in zip(self.keys, self.calls) if k == key)

    def metrics(self) -> dict:
        """Every per-module count and time gathered so far."""
        out = {}
        per_mod = [0] * len(MODULES)
        for key, c in zip(self.keys, self.calls):
            per_mod[MODULES.index(key.split(":", 1)[0])] += c
        for mi, m in enumerate(MODULES):
            out[f"{m}.calls"] = (per_mod[mi], "count")
            out[f"{m}.busy_s"] = (self.mod_busy[mi], "s")
            out[f"{m}.self_s"] = (self.mod_self[mi], "s")
        for gi, g in enumerate(self.group_names):
            out[f"{g}_s"] = (self.group_time[gi], "s")
        for metric, key in CALLS.items():
            out[metric] = (self.calls_of(key), "count")
        for metric in COUNT_METRICS:
            unit = "bits" if metric.endswith("_bits") else "bytes" if metric.endswith("_bytes") else "count"
            out[metric] = (self.counts[metric], unit)
        return out

    def span_count(self) -> int:
        return len(self.span_start)
