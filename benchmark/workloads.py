"""The operations of each workload, their seeded inputs, and the reference
every output is checked against.

No reference comes from prehomog itself.  The catalogue answers below are
the published spectra of the acceptance criteria; generated inputs get
theirs from metamorphic rules: a change of coordinates, a permutation or a
rescaling of the generators keeps the monic b, a direct sum multiplies the
b-functions, and a seeded factor list's roots are known by construction.
The program sees only argv and the JSON files written here.
"""

import json
import random
from collections import Counter
from fractions import Fraction as F
from math import isqrt

# Size caps of the seeded draws; recorded with every result.
CAPS = {
    "conjugate_step": [-2, -1, 1, 2],
    "rescale_by": ["-1", "2", "-1/2", "3", "-3/2"],
    "factor_list_len": [6, 10],
    "factor_lists": 20,
    "root_denominator_max": 12,
    "constant_and_leading_term_bits_max": 26,
    "trial_work": [20000, 24000],
    "open_point_coordinate": [-3, 3],
}

_H, _T = F(1, 2), F(1, 3)
_STAR = [-1 - _T, -1, -1, -1, -1, -1 + _T]      # criterion 03
_DET22_SQ = [-1 - _H, -1, -1, -1 + _H]          # criterion 05
_NON_SPECIAL = ("quadric-cone-3", "quadric-cone-4", "bilinear-cone-4",
                "cubic-chain-4")
# (monic b roots, reduced); None marks the four non-special fixtures,
# whose functional equation fails (criterion 10 and the fixture notes).
_CATALOGUE = {
    "binary-cubic": ([-1 - F(1, 6), -1, -1, -1 + F(1, 6)], True),  # 02
    "det22-squared": (_DET22_SQ, False),
    "star-2111": (_STAR, True),
    "dtilde3-22111": (sorted(_DET22_SQ + _STAR), False),             # 05
    **{name: (None, True) for name in _NON_SPECIAL},
}
# conormal orders (m, half_mu) along star_chain(), criterion 07
_STAR_ORDERS = [("0", "0"), ("1", "1/2"), ("2", "1"), ("5", "5/2"), ("6", "3")]
_STAR_EDGE_FACTORS = ["s+1", "s+1", "(3s+2)(3s+3)(3s+4)", "s+1"]
_OPEN_POINT_FIXTURES = ("star-2111", "binary-cubic", "det22-squared",
                        "cubic-chain-4", "atilde-2")


def catalogue(name):
    """(monic b roots or None, reduced) of a named fixture."""
    family, _, k = name.rpartition("-")
    if family == "nc":
        return [F(-1)] * int(k), True       # criterion 01
    if family == "atilde":
        # det^2 of the 2x2 block times the k-1 path coordinates (criterion
        # 04 at k = 2)
        return [-1 - _H] + [F(-1)] * (int(k) + 1) + [-1 + _H], False
    return _CATALOGUE[name]


class Op:
    """One CLI call and the check of its output."""

    __slots__ = ("label", "argv", "check")

    def __init__(self, label, argv, check):
        self.label = label
        self.argv = argv + ["--json"]
        self.check = check


# -- references ---------------------------------------------------------

def _fmt(c):
    return str(F(c))


def _spectrum_json(roots):
    counts = Counter(F(r) for r in roots)
    return [[_fmt(r), counts[r]] for r in sorted(counts)]


def _monic_json(roots):
    coeffs = [F(1)]                         # lowest degree first
    for r in roots:
        coeffs = [F(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= F(r) * coeffs[i + 1]
    return [_fmt(c) for c in coeffs]


def _symmetric(roots):
    return sorted(F(r) for r in roots) == sorted(-2 - F(r) for r in roots)


def _mismatch(got, want):
    for key, val in want.items():
        if got.get(key) != val:
            return f"{key}: got {got.get(key)!r}, want {val!r}"
    return None


def _json_check(want_code, body):
    def check(code, text):
        if code != want_code:
            return f"exit code {code}, want {want_code}"
        try:
            out = json.loads(text)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        try:
            return body(out)
        except (KeyError, TypeError) as exc:
            return f"output lacks {exc}"
    return check


def expect_classify(n, reduced, special):
    want = {"kind": "linear-free-divisor" if reduced
            else "prehomogeneous-determinant",
            "reduced": reduced, "special": special,
            "closed_under_bracket": True}

    def body(out):
        terms = out["discriminant"]["terms"]
        if not terms or any(sum(t["exponents"]) != n for t in terms):
            return f"discriminant is not homogeneous of degree {n}"
        return _mismatch(out["classification"], want)
    return _json_check(0, body)


def expect_bfunction(roots):
    if roots is None:
        # non-special: exit 2 with an honest failure is the right answer
        want = {"functional_equation_held": False,
                "reason": "functional-equation", "special": False}
        return _json_check(2, lambda out: _mismatch(out["result"], want))
    want = {"functional_equation_held": True,
            "monic_coefficients": _monic_json(roots),
            "roots": _spectrum_json(roots), "residual": ["1"],
            "symmetric_about_minus_one": _symmetric(roots)}
    return _json_check(0, lambda out: _mismatch(out["result"], want))


def expect_chain(roots):
    want = {"monic_coefficients": _monic_json(roots),
            "roots": _spectrum_json(roots), "residual": ["1"]}
    return _json_check(0, lambda out: _mismatch(out, want))


def expect_symmetry(roots):
    want = {"monic_coefficients": _monic_json(roots),
            "symmetric_about_minus_one": _symmetric(roots)}
    return _json_check(0, lambda out: _mismatch(out, want))


def expect_order(m, half_mu):
    want = {"m": m, "half_mu": half_mu}
    return _json_check(0, lambda out: _mismatch(out["order"], want))


def expect_witness(mats, x0, exists):
    """A witness B has B x0 = 0, lies in the generator span and has
    character value 1; the character is the trace on a special divisor."""
    flat = [[v for row in A for v in row] for A in mats]
    span_rank = _rank(flat)

    def body(out):
        w = out["witness"]
        if not exists:
            return None if w is None else "witness at an open-orbit point"
        if w is None:
            return "no witness on the divisor"
        B = [[F(v) for v in row] for row in w]
        if any(sum(b * x for b, x in zip(row, x0)) for row in B):
            return "witness does not vanish at the point"
        if sum(B[i][i] for i in range(len(B))) != 1:
            return "witness has trace other than 1"
        if _rank(flat + [[v for row in B for v in row]]) != span_rank:
            return "witness is outside the generator span"
        return None
    return _json_check(0, body)


# -- exact helpers for building and checking inputs ---------------------

def _rank(rows):
    m = [list(r) for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _orbit_matrix(mats, x):
    """Columns A_k x; invertible exactly on the open orbit."""
    return [[sum(a * v for a, v in zip(A[i], x)) for A in mats]
            for i in range(len(x))]


def _write(workdir, label, mats, special):
    path = workdir / f"{label}.json"
    obj = {"generators": [[[_fmt(v) for v in row] for row in A] for A in mats],
           "reductive": special}
    path.write_text(json.dumps(obj), encoding="utf-8")
    return ["--input", str(path)]


def _conjugate(mats, rng):
    """P A P^-1 for P one elementary unimodular step from the identity."""
    n = len(mats)
    i, j = rng.sample(range(n), 2)
    c = rng.choice(CAPS["conjugate_step"])
    P = [[F(int(r == s)) for s in range(n)] for r in range(n)]
    Pinv = [row[:] for row in P]
    P[i][j], Pinv[i][j] = F(c), F(-c)
    return [_mul(_mul(P, A), Pinv) for A in mats]


def _permute_rescale(mats, rng):
    order = list(range(len(mats)))
    rng.shuffle(order)
    scales = [F(rng.choice(CAPS["rescale_by"])) for _ in order]
    return [[[c * v for v in row] for row in mats[k]]
            for k, c in zip(order, scales)]


def _direct_sum(mats, k, nc_first):
    """Block sum with the normal crossings nc-k."""
    na = len(mats)
    n = na + k
    off_a, off_nc = (k, 0) if nc_first else (0, na)
    out = []
    for A in mats:
        M = [[F(0)] * n for _ in range(n)]
        for r in range(na):
            for c in range(na):
                M[off_a + r][off_a + c] = A[r][c]
        out.append(M)
    for t in range(k):
        M = [[F(0)] * n for _ in range(n)]
        M[off_nc + t][off_nc + t] = F(1)
        out.append(M)
    return out


# -- workloads ----------------------------------------------------------

def _fixture_ops(name, source, n, roots, reduced):
    return [Op(f"classify {name}", ["classify"] + source,
               expect_classify(n, reduced, roots is not None)),
            Op(f"bfunction {name}", ["bfunction"] + source,
               expect_bfunction(roots))]


def dtilde3(fx, rng, workdir):
    """The ten-variable bfunction; it has no seeded inputs."""
    roots, _ = catalogue("dtilde3-22111")
    fx.get_fixture("dtilde3-22111").generators()
    return [Op("bfunction dtilde3-22111",
               ["bfunction", "--fixture", "dtilde3-22111"],
               expect_bfunction(roots))]


def sweep(fx, rng, workdir):
    """classify then bfunction on every fixture but dtilde3, the larger
    family members, and seeded metamorphic inputs."""
    names = [n for n in fx.fixture_names() if n != "dtilde3-22111"]
    names += [f"atilde-{k}" for k in (4, 5, 6)] + [f"nc-{k}" for k in (5, 6, 7, 8)]
    mats = {name: fx.get_fixture(name).generators().matrices()
            for name in names}
    ops = []
    for name in names:
        ops += _fixture_ops(name, ["--fixture", name], len(mats[name]),
                            *catalogue(name))

    made = []   # (label, generator matrices, monic b roots or None, reduced)
    for base in ("binary-cubic", "det22-squared", "atilde-3"):
        made.append((f"conj-{base}", _conjugate(mats[base], rng),
                     *catalogue(base)))
    for base in ("star-2111",) + _NON_SPECIAL:
        made.append((f"perm-{base}", _permute_rescale(mats[base], rng),
                     *catalogue(base)))
    # Each slot draws from sums of similar cost, so the seed moves the
    # inputs but not the size of the pass.  Two engine-heavy blocks are
    # never paired: binary-cubic (+) binary-cubic runs for over a minute.
    for slot in ((("binary-cubic", 2), ("det22-squared", 2)),
                 tuple((base, 2) for base in _NON_SPECIAL[1:]),
                 (("star-2111", 1), ("atilde-2", 2))):
        base, k = rng.choice(slot)
        roots, reduced = catalogue(base)
        if roots is not None:
            roots = roots + [F(-1)] * k
        made.append((f"sum-{base}-nc-{k}",
                     _direct_sum(mats[base], k, rng.random() < 0.5),
                     roots, reduced))
    for label, gens, roots, reduced in made:
        source = _write(workdir, label, gens, roots is not None)
        ops += _fixture_ops(label, source, len(gens), roots, reduced)
    return ops


def _divisor_count(exponents):
    out = 1
    for e in exponents.values():
        out *= e + 1
    return out


def _factorize(n, into):
    p = 2
    while p * p <= n:
        while n % p == 0:
            into[p] += 1
            n //= p
        p += 1
    if n > 1:
        into[n] += 1


def _draw_root(rng):
    q = rng.randint(2, CAPS["root_denominator_max"])
    return -F(rng.randint(1, 2 * q - 1), q)


def _factor_list(rng, symmetric):
    """Roots in (-2, 0) whose rational-root-test cost sits in a fixed window.

    The primitive integer form of prod (q s + p) has constant term
    c0 = prod p and leading term cd = prod q (Gauss's lemma), so the cost
    is known before the program runs: trial division tries every divisor
    pair of (c0, cd), and lists the divisors of cd by trial up to sqrt(cd)
    once per divisor of c0.  trial_work weighs the two by their measured
    costs, about 4.5 us per pair and 0.08 us per trial division; the window
    keeps each list at tenths of a second.
    """
    lo, hi = CAPS["factor_list_len"]
    work_lo, work_hi = CAPS["trial_work"]
    bits = CAPS["constant_and_leading_term_bits_max"]
    while True:
        k = rng.randint(lo, hi)
        roots = []
        while len(roots) < k:
            r = _draw_root(rng)
            roots += [r, -2 - r] if symmetric and len(roots) + 2 <= k else [r]
        if symmetric and len(roots) % 2:
            roots[-1] = F(-1)
        num, den = Counter(), Counter()
        c0 = cd = 1
        for r in roots:
            _factorize(-r.numerator, num)
            _factorize(r.denominator, den)
            c0 *= -r.numerator
            cd *= r.denominator
        d0 = _divisor_count(num)
        work = d0 * _divisor_count(den) + d0 * isqrt(cd) // 50
        if max(c0, cd).bit_length() <= bits and work_lo <= work <= work_hi:
            rng.shuffle(roots)
            return roots


def _factor_text(r):
    q, p = r.denominator, -r.numerator
    return f"({'' if q == 1 else q}s+{p})"


def pointwise(fx, rng, workdir):
    """Commands that never build f^{s+1}: euler, microlocal, chain and
    symmetry --poly."""
    ops = []
    star = fx.get_fixture("star-2111").generators().matrices()
    for pt, (m, half_mu) in zip(fx.star_chain(), _STAR_ORDERS):
        point = ",".join(_fmt(v) for v in pt.x0)
        # "=" keeps a leading minus sign from reading as an option
        src = ["--fixture", "star-2111", f"--point={point}"]
        ops.append(Op(f"euler star {pt.label}", ["euler"] + src,
                      expect_witness(star, pt.x0, pt.label != "open")))
        cov = [] if pt.y0 is None else [
            "--covector=" + ",".join(_fmt(v) for v in pt.y0)]
        ops.append(Op(f"microlocal star {pt.label}", ["microlocal"] + src + cov,
                      expect_order(m, half_mu)))
    lo, hi = CAPS["open_point_coordinate"]
    for name in _OPEN_POINT_FIXTURES:
        mats = fx.get_fixture(name).generators().matrices()
        while True:
            x0 = [F(rng.randint(lo, hi)) for _ in mats]
            if _rank(_orbit_matrix(mats, x0)) == len(mats):
                break
        ops.append(Op(f"euler {name} open",
                      ["euler", "--fixture", name,
                       "--point=" + ",".join(_fmt(v) for v in x0)],
                      expect_witness(mats, x0, False)))
    ops.append(Op("chain star edges", ["chain"] + _STAR_EDGE_FACTORS,
                  expect_chain(_STAR)))
    for i in range(CAPS["factor_lists"]):
        roots = _factor_list(rng, symmetric=i % 2 == 0)
        texts = [_factor_text(r) for r in roots]
        groups, pos = [], 0
        while pos < len(texts):
            step = rng.randint(1, 3)
            groups.append("".join(texts[pos:pos + step]))
            pos += step
        ops.append(Op(f"chain list {i}", ["chain"] + groups,
                      expect_chain(roots)))
        ops.append(Op(f"symmetry list {i}", ["symmetry", "--poly", "".join(texts)],
                      expect_symmetry(roots)))
    return ops


WORKLOADS = {"dtilde3": dtilde3, "sweep": sweep, "pointwise": pointwise}


def build(name, seed, fx, workdir):
    """The operation list of a workload; writes its input files."""
    return WORKLOADS[name](fx, random.Random(seed), workdir)
