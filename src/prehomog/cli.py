"""Command line surface.

Exit codes: 0 success, 1 input errors (bad JSON, unknown fixtures,
dimension mismatches), 2 mathematical failures (functional equation
does not hold, covector not admissible).
"""

import argparse
import functools
import json
import sys

from . import bernstein, fixtures, geometry, liealg, quiver, serialize
from .errors import MathFailure, ParseError, PrehomogError
from .polyring import parse_factored, rational_root_spectrum


class JobSpec:
    """One command with its validated options."""

    __slots__ = ("command", "fixture", "input_path", "seed", "trials",
                 "point", "covector", "poly", "factors", "json_output")

    def __init__(self, command, fixture=None, input_path=None, seed=0,
                 trials=8, point=None, covector=None, poly=None,
                 factors=None, json_output=False):
        self.command = command
        self.fixture = fixture
        self.input_path = input_path
        self.seed = seed
        self.trials = trials
        self.point = point
        self.covector = covector
        self.poly = poly
        self.factors = factors or []
        self.json_output = json_output


def _load_source(job: JobSpec):
    """(GeneratorSet, reductive flag or None, display name)."""
    if job.fixture and job.input_path:
        raise ParseError("give either --fixture or --input, not both")
    if job.fixture:
        fx = fixtures.get_fixture(job.fixture)
        return fx.generators(), fx.reductive, fx.name
    if job.input_path:
        try:
            with open(job.input_path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read {job.input_path}: {exc}") from None
        except ValueError as exc:  # bad JSON, or an int past the digit limit
            raise ParseError(f"malformed JSON in {job.input_path}: {exc}") from None
        if not isinstance(obj, dict):
            raise ParseError("input must be a JSON object")
        if "edges" in obj:
            qv, d = serialize.quiver_from_json(obj)
            g = quiver.infinitesimal_generators(qv, d)
        elif "generators" in obj:
            g = serialize.generatorset_from_json(obj)
        else:
            raise ParseError('input needs either "edges" (quiver) or "generators"')
        reductive = obj.get("reductive")
        if "reductive" in obj and not isinstance(reductive, bool):
            raise ParseError('"reductive" must be true or false')
        return g, reductive, job.input_path
    raise ParseError("a source is required: --fixture NAME or --input FILE")


def _flag(v):
    return {True: "yes", False: "no"}.get(v, "unknown")


def _emit(job, record, lines):
    if job.json_output:
        return json.dumps(record, indent=2)
    return "\n".join(lines)


def _cmd_classify(job):
    g, reductive, name = _load_source(job)
    cls = liealg.classify(g, trials=job.trials, seed=job.seed)
    record = {
        "command": "classify",
        "source": name,
        "classification": serialize.classification_to_json(cls),
        "discriminant": serialize.multipoly_to_json(cls.discriminant),
        "reductive": reductive,
    }
    lines = [
        f"f = {cls.discriminant}",
        f"degree: {g.n}",
        f"kind: {cls.kind}",
        f"reduced: {_flag(cls.reduced)}",
        f"special: {_flag(cls.special)}",
        f"closed under bracket: {_flag(cls.closed_under_bracket)}",
        f"reductive (asserted): {_flag(reductive)}",
    ]
    return 0, _emit(job, record, lines)


def _cmd_bfunction(job):
    g, _, name = _load_source(job)
    res = bernstein.bfunction(g)
    record = {"command": "bfunction", "source": name,
              "result": serialize.bresult_to_json(res)}
    if not res.functional_equation_held:
        lines = [res.message(), f"reason: {res.reason}"]
        return 2, _emit(job, record, lines)
    lines = [
        f"b(s) = {res.b}",
        f"spectrum: {res.spectrum}",
        f"raw leading coefficient: {serialize.rational_to_json(res.raw_leading)}",
        f"special: {_flag(res.special)}",
        f"symmetric about -1: {_flag(res.symmetric)}",
        "functional equation: held",
    ]
    return 0, _emit(job, record, lines)


def _cmd_symmetry(job):
    if job.poly:
        b = parse_factored(job.poly)
        source = "poly"
    else:
        g, _, source = _load_source(job)
        res = bernstein.bfunction(g)
        if not res.functional_equation_held:
            record = {"command": "symmetry", "source": source,
                      "result": serialize.bresult_to_json(res)}
            return 2, _emit(job, record, [res.message()])
        b = res.b
    verdict = bernstein.symmetry_check(b)
    record = {"command": "symmetry", "source": source,
              "monic_coefficients": serialize.unipoly_to_json(b.monic()),
              "symmetric_about_minus_one": verdict}
    lines = [f"b(s) = {b.monic()}",
             f"symmetric about -1: {_flag(verdict)}"]
    return 0, _emit(job, record, lines)


def _require_point(job, g):
    if job.point is None:
        raise ParseError("--point is required for this command")
    x0 = serialize.vector_from_text(job.point)
    if len(x0) != g.n:
        raise ParseError(f"point needs {g.n} coordinates, got {len(x0)}")
    return x0


def _cmd_euler(job):
    g, _, name = _load_source(job)
    x0 = _require_point(job, g)
    f = liealg.discriminant(g)
    c = liealg.character(g, f)
    ctx = geometry.point_context(g, x0)
    witness = geometry.euler_at_point(g, c, ctx)
    if witness is None:
        record = {"command": "euler", "source": name, "witness": None}
        lines = ["inconclusive: the character vanishes on the isotropy algebra"]
    else:
        record = {"command": "euler", "source": name,
                  "witness": [[serialize.rational_to_json(v) for v in row]
                              for row in witness]}
        lines = ["witness (matrix with character value 1, vanishing at the point):"]
        lines += ["  [" + ", ".join(serialize.rational_to_json(v) for v in row) + "]"
                  for row in witness]
    return 0, _emit(job, record, lines)


def _cmd_microlocal(job):
    g, _, name = _load_source(job)
    x0 = _require_point(job, g)
    f = liealg.discriminant(g)
    c = liealg.character(g, f)
    ctx = geometry.point_context(g, x0)
    y0 = None
    if job.covector is not None:
        y0 = serialize.vector_from_text(job.covector)
    order = geometry.conormal_order(g, c, ctx, y0)
    record = {"command": "microlocal", "source": name,
              "order": serialize.orderform_to_json(order)}
    lines = [f"ord f^s = {order}",
             f"normal space dimension: {len(ctx.normal_coords)}"]
    return 0, _emit(job, record, lines)


def _cmd_chain(job):
    if not job.factors:
        raise ParseError("chain needs at least one factor")
    polys = [parse_factored(text) for text in job.factors]
    asm = geometry.chain_assemble(polys)
    sp = rational_root_spectrum(asm)
    record = {"command": "chain",
              "monic_coefficients": serialize.unipoly_to_json(asm),
              "roots": serialize.spectrum_roots_to_json(sp),
              "residual": serialize.unipoly_to_json(sp.residual)}
    lines = [f"assembled monic polynomial: {asm}",
             f"spectrum: {sp}"]
    return 0, _emit(job, record, lines)


_DISPATCH = {
    "classify": _cmd_classify,
    "bfunction": _cmd_bfunction,
    "symmetry": _cmd_symmetry,
    "euler": _cmd_euler,
    "microlocal": _cmd_microlocal,
    "chain": _cmd_chain,
}


def run(job: JobSpec):
    """Execute one job; returns (exit code, report text)."""
    handler = _DISPATCH.get(job.command)
    if handler is None:
        return 1, f"unknown command {job.command!r}"
    try:
        return handler(job)
    except MathFailure as exc:
        return 2, f"mathematical failure: {exc}"
    except PrehomogError as exc:
        return 1, f"error: {exc}"


@functools.cache
def _build_parser():
    """The parser, built once per process: parse_args fills a new
    namespace on every call, so nothing carries over between calls."""
    parser = argparse.ArgumentParser(
        prog="prehomog",
        description="Exact b-functions of prehomogeneous determinants")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, source=True):
        if source:
            p.add_argument("--fixture", help="named fixture, e.g. star-2111")
            p.add_argument("--input", dest="input_path",
                           help="JSON file with generators or a quiver")
        p.add_argument("--json", dest="json_output", action="store_true",
                       help="machine readable output")

    p = sub.add_parser("classify", help="discriminant and its kind")
    add_common(p)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the squarefree test (default 0)")
    p.add_argument("--trials", type=int, default=8,
                   help="lines for the squarefree test (default 8, at most 1000)")
    add_common(sub.add_parser("bfunction",
                              help="b-function via the dual functional equation"))
    p = sub.add_parser("symmetry", help="check b(s) = (-1)^d b(-s-2)")
    add_common(p)
    p.add_argument("--poly", help='factored polynomial, e.g. "(s+1)^2(s+2)"')
    p = sub.add_parser("euler", help="Euler homogeneity witness at a point")
    add_common(p)
    p.add_argument("--point", help="comma separated rational coordinates")
    p = sub.add_parser("microlocal", help="conormal order at a point")
    add_common(p)
    p.add_argument("--point", help="comma separated rational coordinates")
    p.add_argument("--covector", help="comma separated rationals on the "
                   "normal coordinates")
    p = sub.add_parser("chain", help="assemble b from chain edge factors")
    add_common(p, source=False)
    p.add_argument("factors", nargs="+",
                   help='factored polynomials, e.g. "s+1" "(3s+2)(3s+3)"')
    return parser


def main(argv=None):
    parser = _build_parser()
    # every subparser's keys are JobSpec fields; JobSpec fills the rest
    code, text = run(JobSpec(**vars(parser.parse_args(argv))))
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
