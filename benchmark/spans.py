"""Per-layer spans, recorded from outside the program.

A traced pass replaces each public function below with a wrapper, under
every name a caller resolves it by: `bernstein` and `cli` import
`rational_root_spectrum` by name, `liealg` imports `is_squarefree` by name,
so each of those module attributes is rebound too.  A wrapper keeps a
stack of open spans; a layer's self time is its span minus the spans of
the wrapped functions it called.  Beside the times it counts deterministic
sizes: those must repeat exactly from run to run.
"""

import sys
from time import perf_counter

SPANS = (
    ("bernstein", "apply_operator"), ("bernstein", "extract_cofactor"),
    ("bernstein", "symmetry_check"),
    ("liealg", "validate_algebra"), ("liealg", "discriminant"),
    ("liealg", "character"),
    ("linalg", "rref"),
    ("polyring", "is_squarefree"), ("polyring", "rational_root_spectrum"),
    ("geometry", "point_context"), ("geometry", "conormal_order"),
    ("geometry", "chain_assemble"),
    ("cli", "main"), ("serialize", "generatorset_from_json"),
    ("quiver", "infinitesimal_generators"),
)


def _bits(c):
    return max(c.numerator.bit_length(), c.denominator.bit_length())


class Tracer:
    """Installs the wrappers on the loaded prehomog modules and collects
    one traced pass worth of counts and self times."""

    def __init__(self):
        self._undo = []
        self.calls = {f"{m}.{f}": 0 for m, f in SPANS}
        self.self_s = dict.fromkeys(self.calls, 0.0)
        self.sizes = dict.fromkeys(("steps", "terms_out", "coeff_bits_max",
                                    "disc_terms", "lines", "roots",
                                    "evaluations"), 0)
        self._stack = []        # child time of each open span
        self._inside = set()

    def _after(self, name, args, result):
        """Size counters, read off arguments and results."""
        s = self.sizes
        if name == "bernstein.apply_operator":
            s["steps"] += sum(sum(alpha) for alpha in args[0].terms)
            s["terms_out"] += len(result.terms)
            s["coeff_bits_max"] = max(
                [s["coeff_bits_max"]] + [_bits(c) for sc in result.terms.values()
                                         for c in sc])
        elif name == "liealg.discriminant":
            s["disc_terms"] += len(result.terms)
        elif name == "polyring.rational_root_spectrum":
            s["roots"] += sum(m for _, m in result.roots)

    def _span(self, name, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            self._inside.add(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - t0
                child = stack.pop()
                self._inside.discard(name)
                calls[name] += 1
                self_s[name] += span - child
                if stack:
                    stack[-1] += span
            t1 = perf_counter()
            self._after(name, args, result)
            if stack:   # the parent's self time excludes the size hooks
                stack[-1] += perf_counter() - t1
            return result
        return wrapper

    def _counter(self, inside, key, fn):
        sizes, active = self.sizes, self._inside

        def wrapper(*args, **kwargs):
            if inside in active:
                sizes[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        mods = [m for n, m in sys.modules.items()
                if n == "prehomog" or n.startswith("prehomog.")]
        for modname, fname in SPANS:
            orig = getattr(sys.modules[f"prehomog.{modname}"], fname)
            wrapped = self._span(f"{modname}.{fname}", orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._rebind(mod, attr, wrapped)
        poly = sys.modules["prehomog.polyring"]
        self._rebind(poly.UniPoly, "evaluate", self._counter(
            "polyring.rational_root_spectrum", "evaluations",
            poly.UniPoly.evaluate))
        self._rebind(poly.MultiPoly, "restrict_line", self._counter(
            "polyring.is_squarefree", "lines", poly.MultiPoly.restrict_line))

    def remove(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def counts(self):
        """Deterministic per-pass counts, by metric name."""
        s = self.sizes
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out["bernstein.apply_operator.steps"] = s["steps"]
        out["bernstein.apply_operator.terms_out"] = s["terms_out"]
        out["bernstein.apply_operator.coeff_bits_max"] = s["coeff_bits_max"]
        out["liealg.discriminant.terms_out"] = s["disc_terms"]
        calls = self.calls["polyring.is_squarefree"]
        out["polyring.is_squarefree.lines"] = s["lines"] / calls if calls else 0.0
        out["polyring.rational_root_spectrum.hit_ratio"] = (
            s["roots"] / s["evaluations"] if s["evaluations"] else 0.0)
        return out
