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
from .errors import DomainError, MathFailure, ParseError, PrehomogError
from .polyring import _factored, parse_factored, rational_root_spectrum


def _load_source(job):
    """(GeneratorSet, reductive flag or None, display name)."""
    if job.fixture is not None and job.input_path is not None:
        raise ParseError("give either --fixture or --input, not both")
    if job.fixture is not None:
        fx = fixtures.get_fixture(job.fixture)
        return fx.generators(), fx.reductive, fx.name
    if job.input_path is not None:
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
    """The report: the JSON record under --json, else the text lines, which
    `lines()` builds only then."""
    if job.json_output:
        return json.dumps(record, indent=2)
    return "\n".join(lines())


def _cmd_classify(job):
    g, reductive, name = _load_source(job)
    cls = liealg.classify(g)
    record = {
        "command": "classify",
        "source": name,
        "classification": serialize.classification_to_json(cls),
        "discriminant": serialize.multipoly_to_json(cls.discriminant),
        "reductive": reductive,
    }
    return 0, _emit(job, record, lambda: [
        f"f = {cls.discriminant}",
        f"degree: {g.n}",
        f"kind: {cls.kind}",
        f"reduced: {_flag(cls.reduced)}",
        f"special: {_flag(cls.special)}",
        f"closed under bracket: {_flag(cls.closed_under_bracket)}",
        f"reductive (asserted): {_flag(reductive)}",
    ])


def _cmd_bfunction(job):
    g, _, name = _load_source(job)
    res = bernstein.bfunction(g)
    record = {"command": "bfunction", "source": name,
              "result": serialize.bresult_to_json(res)}
    if not res.functional_equation_held:
        return 2, _emit(job, record,
                        lambda: [res.message(), f"reason: {res.reason}"])
    return 0, _emit(job, record, lambda: [
        f"b(s) = {res.b}",
        f"spectrum: {res.spectrum}",
        f"raw leading coefficient: {res.raw_leading}",
        f"special: {_flag(res.special)}",
        f"symmetric about -1: {_flag(res.symmetric)}",
        "functional equation: held",
    ])


def _cmd_symmetry(job):
    if job.poly is not None:
        if job.fixture is not None or job.input_path is not None:
            raise ParseError("give either --poly or a source, not both")
        b = parse_factored(job.poly)
        source, verdict = "poly", bernstein.symmetry_check(b)
    else:
        g, _, source = _load_source(job)
        res = bernstein.bfunction(g)
        if not res.functional_equation_held:
            record = {"command": "symmetry", "source": source,
                      "result": serialize.bresult_to_json(res)}
            return 2, _emit(job, record, lambda: [res.message()])
        b, verdict = res.b, res.symmetric
    record = {"command": "symmetry", "source": source,
              "monic_coefficients": serialize.unipoly_to_json(b.monic()),
              "symmetric_about_minus_one": verdict}
    return 0, _emit(job, record, lambda: [f"b(s) = {b.monic()}",
                                          f"symmetric about -1: {_flag(verdict)}"])


def _at_point(job):
    """(GeneratorSet, display name, character, point context) of the
    source at --point."""
    g, _, name = _load_source(job)
    if job.point is None:
        raise ParseError("--point is required for this command")
    x0 = serialize.vector_from_text(job.point)
    if len(x0) != g.n:
        raise ParseError(f"point needs {g.n} coordinates, got {len(x0)}")
    c = liealg.character(g)
    if liealg.discriminant(g).is_zero:
        raise DomainError("discriminant vanishes; not prehomogeneous")
    return g, name, c, geometry.point_context(g, x0)


def _cmd_euler(job):
    g, name, c, ctx = _at_point(job)
    witness = geometry.euler_at_point(g, c, ctx)
    rows = None if witness is None else [list(map(str, row)) for row in witness]
    record = {"command": "euler", "source": name, "witness": rows}
    if rows is None:
        return 0, _emit(job, record, lambda: [
            "inconclusive: the character vanishes on the isotropy algebra"])
    return 0, _emit(job, record, lambda: [
        "witness (matrix with character value 1, vanishing at the point):"]
        + ["  [" + ", ".join(row) + "]" for row in rows])


def _cmd_microlocal(job):
    g, name, c, ctx = _at_point(job)
    y0 = None
    if job.covector is not None:
        y0 = serialize.vector_from_text(job.covector)
    elif ctx.normal_coords:
        raise ParseError(f"--covector is required here: the normal space has "
                         f"dimension {len(ctx.normal_coords)}")
    order = geometry.conormal_order(g, c, ctx, y0)
    record = {"command": "microlocal", "source": name,
              "order": serialize.orderform_to_json(order)}
    return 0, _emit(job, record, lambda: [
        f"ord f^s = {order}", f"normal space dimension: {len(ctx.normal_coords)}"])


def _cmd_chain(job):
    parsed = [_factored(text) for text in job.factors]
    asm = geometry.chain_assemble(p for p, _ in parsed)
    sp = rational_root_spectrum(*(f for _, factors in parsed for f in factors))
    record = {"command": "chain",
              "monic_coefficients": serialize.unipoly_to_json(asm),
              "roots": serialize.spectrum_roots_to_json(sp),
              "residual": serialize.unipoly_to_json(sp.residual)}
    return 0, _emit(job, record, lambda: [f"assembled monic polynomial: {asm}",
                                          f"spectrum: {sp}"])


def run(argv):
    """Parse argv and execute its command; returns (exit code, report
    text).  A bad command line exits through argparse, with code 2."""
    parser = _build_parser()
    job = parser.parse_args(argv)
    for dest, value in vars(job).items():
        if value == []:  # argparse reads an option written --NAME=-- as []
            flag = "--" + dest.removesuffix("_path")
            parser.error(f"argument {flag}: expected one argument")
    try:
        return job.handler(job)
    except MathFailure as exc:
        return 2, f"mathematical failure: {exc}"
    except PrehomogError as exc:
        return 1, f"error: {exc}"


@functools.cache
def _build_parser():
    """The parser, built once per process: parse_args fills a new
    namespace on every call, so nothing carries over between calls.  Each
    subparser sets its handler as a default, and the namespace is the job
    the handler reads."""
    parser = argparse.ArgumentParser(
        prog="prehomog",
        description="Exact b-functions of prehomogeneous determinants")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, source=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        if source:
            p.add_argument("--fixture", help="named fixture, e.g. star-2111")
            p.add_argument("--input", dest="input_path",
                           help="JSON file with generators or a quiver")
        p.add_argument("--json", dest="json_output", action="store_true",
                       help="machine readable output")
        return p

    command("classify", _cmd_classify, "discriminant and its kind")
    command("bfunction", _cmd_bfunction,
            "b-function via the dual functional equation")
    p = command("symmetry", _cmd_symmetry, "check b(s) = (-1)^d b(-s-2)")
    p.add_argument("--poly", help='factored polynomial, e.g. "(s+1)^2(s+2)"')
    p = command("euler", _cmd_euler, "Euler homogeneity witness at a point")
    p.add_argument("--point", help="comma separated rational coordinates")
    p = command("microlocal", _cmd_microlocal, "conormal order at a point")
    p.add_argument("--point", help="comma separated rational coordinates")
    p.add_argument("--covector", help="comma separated rationals on the "
                   "normal coordinates")
    p = command("chain", _cmd_chain, "assemble b from chain edge factors",
                source=False)
    p.add_argument("factors", nargs="+",
                   help='factored polynomials, e.g. "s+1" "(3s+2)(3s+3)"')
    return parser


def main(argv=None):
    code, text = run(argv)
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
