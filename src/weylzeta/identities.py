"""The identity battery: every relation the package promises, checked exactly.

The zetas of walks, half-steps and galleries, P and the correction
factors come from zeta_bundle, the one producer of a quotient's zeta
data, which the `zeta` command prints too.  verify adds only its own
work: the census progressions the zeta logs and the corner check are
compared with, the double cover of a Klein bottle, and the records.

Each record compares two independently computed objects.  Every zeta
function, correction factor and L-polynomial is a CycleProduct, whose
exponent dict is its rational function, so every identity is decided by
integer arithmetic: never numerically, never by truncation and without
dense polynomials.  A product record is an exponent balance, a row of
the one table _BALANCES, which one driver reads: it holds when sum
p * k_e over its lhs terms (product, power), less that over its rhs
terms, is zero at every e, which is exactly lhs == rhs (_balances).
The products the rows name, the
partner zetas, the gallery zeta at -u and the axis factors among them,
are made once per rep (_rep_products), so a record that holds builds no
product.  The L-polynomial enters once, as a CycleProduct:
l_poly_from_counts reads it off the census's walk progressions in
closed form, or the bundle records why there is none, and every record
that needs P fails with the reason "l-reconstruction failed" when there
is none.  So a successful run expands no polynomial: only a failing
record builds its two sides, and its compare expands coefficient lists
for the detail, each cross product as one merged factor dict.  Each
count record compares the census's counts with the zeta logarithm's
exact coefficients, exactly at every length, as two divisor-sum dicts
(_log_compare): no count table is built and no length is sampled.

The order is the u-order the JSON reports, max(required_order(q), 48)
when omitted; an explicit one is checked against required_order and
MAX_ORDER (resolve_order).  It sizes no table.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import NamedTuple, Optional

from .algebra import CycleProduct, _expand, spread
from . import census
from .quotient import QuotientGroup, TorusSpec, build
from .zeta import axis_factor, build_walk_system, zeta_bundle

GLIDE_WINDOW = 4


class VerifyRecord(NamedTuple):
    identity_id: str
    statement: str
    holds: bool
    detail: dict


class VerificationReport(NamedTuple):
    root_system: str
    kind: str
    order: int
    records: tuple

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.records)

    def failures(self):
        return [r for r in self.records if not r.holds]

    def to_json_dict(self) -> dict:
        return {
            "root_system": self.root_system,
            "kind": self.kind,
            "order": self.order,
            "all_hold": self.all_hold,
            "verify": [
                {
                    "id": r.identity_id,
                    "statement": r.statement,
                    "holds": r.holds,
                    "detail": r.detail,
                }
                for r in self.records
            ],
        }


def _ratfunc_json(f: CycleProduct) -> dict:
    v, num, den = f.expanded()
    return {"num": spread(num, v), "den": spread(den, v), "var": "w"}


def _poly_compare(lhs: list, rhs: list) -> dict:
    """Empty dict when equal, else the first mismatching w-coefficient."""
    for k, (x, y) in enumerate(zip_longest(lhs, rhs, fillvalue=0)):
        if x != y:
            return {
                "first_mismatch_exponent": k,
                "lhs_coefficient": str(x),
                "rhs_coefficient": str(y),
            }
    return {}


def _cross(lhs: CycleProduct, rhs: CycleProduct) -> tuple:
    """lhs.num * rhs.den and rhs.num * lhs.den of the reduced forms, as
    w-coefficient lists: each product is one expansion of its factors'
    merged factor dicts in w, to the sum of their degrees."""
    (lv, ln, ld), (rv, rn, rd) = lhs._reduced_form(), rhs._reduced_form()
    out = []
    for a, num, b, den in ((lv, ln, rv, rd), (rv, rn, lv, ld)):
        merged = {a * d: x for d, x in num.items()}
        for d, x in den.items():
            merged[b * d] = merged.get(b * d, 0) + x
        out.append(_expand(merged, sum(e * x for e, x in merged.items())))
    return tuple(out)


def _ratfunc_compare(lhs: CycleProduct, rhs: CycleProduct) -> dict:
    """Empty when equal, else both reduced forms and the first mismatching
    coefficient of the cross-multiplied identity."""
    if lhs == rhs:
        return {}
    return {
        "lhs": _ratfunc_json(lhs),
        "rhs": _ratfunc_json(rhs),
        **_poly_compare(*_cross(lhs, rhs)),
    }


def _product_poly_compare(lhs: CycleProduct, rhs: CycleProduct) -> dict:
    """Empty when equal, else the first mismatching cross-multiplied coefficient."""
    return {} if lhs == rhs else _poly_compare(*_cross(lhs, rhs))


def _cycles(z: CycleProduct, step_in_w: int) -> list:
    """The (ell, c_ell) pairs of a transfer system's zeta
    z = prod (1 - w**(step_in_w * ell))**-c_ell, by increasing ell."""
    return [(e // step_in_w, -k) for e, k in z.items()]


def _log_compare(z: CycleProduct, step_in_w: int, progressions, kind: str) -> dict:
    """The first n at which the census's closings of n steps, the counts
    of its progressions of kind, differ from the closed paths of n steps
    of the system with zeta z, with both counts; empty when they agree at
    every n.

    Both are divisor sums: the census's N_n = sum_{d | n} s[d]
    (census._divisor_sums), and the system's, with c_ell cycles of length
    ell, sum_{ell | n} ell * c_ell.  A divisor sum determines its dict, so
    the two agree at every n exactly when the dicts are equal.  Otherwise
    they first differ at d0, the least key at which the dicts differ: the
    terms of every divisor below d0 agree.  Each count at d0 is the sum
    of its dict over the divisors of d0."""
    lhs = census._divisor_sums(progressions, kind)
    rhs = {e // step_in_w: -k * (e // step_in_w) for e, k in z._k.items()}
    if lhs == rhs:
        return {}
    n = min(d for d in lhs.keys() | rhs.keys() if lhs.get(d) != rhs.get(d))
    at_n = [sum(x for d, x in s.items() if n % d == 0) for s in (lhs, rhs)]
    return {"first_mismatch_n": n, "lhs": at_n[0], "rhs": at_n[1]}


def _glide_line_scan(q: QuotientGroup) -> dict:
    """First mismatch between glide line counts and the predicted value
    over the window v = c*alpha + d*beta, |c|, |d| <= GLIDE_WINDOW, d != 0,
    v in the coroot lattice, in the order m, c, d; empty when none.

    A count is k exactly when v is the vector of its beta-row (glide_rows,
    never for d < 0) and 0 otherwise.  The prediction is k only at the one
    c, if any, with 2 (c alpha + d beta, alpha) = k m (alpha, alpha) and
    d > 0, and 0 otherwise.  So off the rows d > 0 both are 0, and on one
    such row only three vectors can mismatch: the two glides' row
    vectors and the predicted one.  Only those are evaluated, by a lookup
    in the rows of each glide, which one glide_rows call per power gives.
    """
    rs, alpha, beta = q.rs, q.alpha, q.beta
    aa, ab = rs.pairing(alpha, alpha), rs.pairing(alpha, beta)
    window = range(1, GLIDE_WINDOW + 1)
    for m in (1, 3):
        rows_s, rows_t = census.glide_rows(q, m, window)
        target = q.k_gamma * m * aa
        candidates = set()
        for rows in (rows_s, rows_t):
            candidates.update((q.alpha_beta_coords(row)[0], d) for d, row in rows.items())
        for d in window:
            c, r = divmod(target - 2 * d * ab, 2 * aa)
            if not r:
                candidates.add((c, d))
        for c, d in sorted(candidates):
            v = (c * alpha[0] + d * beta[0], c * alpha[1] + d * beta[1])
            if abs(c) > GLIDE_WINDOW or not rs.in_coroot_lattice(v):
                continue
            expected = q.k_gamma if 2 * rs.pairing(v, alpha) == target else 0
            got_s, got_t = (q.k_gamma if rows.get(d) == v else 0 for rows in (rows_s, rows_t))
            if got_s != expected or got_t != got_s:
                return {
                    "m": m,
                    "v": list(v),
                    "expected": expected,
                    "sigma_count": got_s,
                    "tsigma_count": got_t,
                }
    return {}


_ONE = CycleProduct()

# The product records, as rows (applies to, id, statement, lhs, rhs,
# detail kind): a row applies to a "torus", a "klein" bottle or "both".  A
# side is a tuple of terms (name, p), the product of the named products of
# a rep (_rep_products) to the powers p.  A row that names l_poly needs P.
# Only a failing record builds its sides, for the compare its detail kind
# names: "ratfunc" for _ratfunc_compare, "poly" for _product_poly_compare.
_BALANCES = (
    # on a torus P is the census's closed form, prod over weights of
    # (1 - u**ord)**(N / ord): the engine against the census
    ("torus", "torus-three-way", "walk zeta equals reciprocal L-polynomial and closed form",
     (("zeta", 1),), (("l_poly", -1),), "ratfunc"),
    ("klein", "l-zeta-axis-correction", "reciprocal L-polynomial equals walk zeta times axis factor",
     (("l_poly", -1),), (("zeta", 1), ("corr", 1)), "ratfunc"),
    # against the independently built double cover
    ("klein", "double-cover-square",
     "squared walk zeta equals the double cover zeta times the rational-axis factor",
     (("zeta", 2),), (("cover", 1), ("cover_axis", 1)), "ratfunc"),
    ("both", "half-step-vs-walk", "half-step zeta equals walk zeta up to the semi-rational axis factor",
     (("semi", 1),), (("zeta", 1), ("semi_axis", 1)), "ratfunc"),
    ("both", "gallery-vs-half-step",
     "gallery zeta equals the partner half-step zeta after the length reparametrization",
     (("zeta2", 1),), (("partner_semi", 1),), "ratfunc"),
    ("both", "main-identity", "trivial-weight-cleared L equals walk zetas over gallery zeta at -u",
     (("zeta", -1), ("partner_walks", -1)), (("l_poly", 1), ("gallery_neg", -1)), "poly"),
    ("both", "gallery-walk-quotient",
     "partner walk zeta over gallery zeta at -u equals the axis correction factor",
     (("partner_walks", 1), ("gallery_neg", -1)), (("corr", 1),), "poly"),
)


def _balances(products: dict, lhs: tuple, rhs: tuple) -> bool:
    """Whether sum p * k_e over the lhs terms (name, p), each the named
    product to the power p, less that over the rhs terms, is zero at every
    e: whether lhs == rhs, as a product's exponent dict is its rational
    function.  No product is built."""
    total: dict = {}
    for name, p in lhs:
        for e, x in products[name]._k.items():
            total[e] = total.get(e, 0) + p * x
    for name, p in rhs:
        for e, x in products[name]._k.items():
            total[e] = total.get(e, 0) - p * x
    return not any(total.values())


def _side(products: dict, terms: tuple) -> CycleProduct:
    """The product of the terms (name, p) of a failing record's side."""
    out = _ONE
    for name, p in terms:
        out = out * products[name] ** p
    return out


def _rep_products(q: QuotientGroup, bundle) -> dict:
    """{rep: {name: product}}, the products the balance rows name, made
    once per rep: the bundle's zeta (walks), semi, zeta2, l_poly (None
    when the rep has no P) and corr; each rep's partner zetas, its
    partner's walk and half-step zetas after the length reparametrization
    (u -> u**2 when the partner's n-value is 1), to the power n; its
    gallery zeta at -u; and its semi-rational axis factor, 1 on a torus.
    A Klein bottle adds its double cover's walk zeta and rational-axis
    factor."""
    rs = q.rs
    _, walks, semi, zeta2, l_poly, _, corr = bundle
    lifted = {}
    for rep in rs.rep_names:
        n = rs.rep(rep).n_value
        if n == 1:
            lifted[rep] = walks[rep].substitute(2), semi[rep].substitute(2)
        else:
            lifted[rep] = walks[rep] ** n, semi[rep] ** n
    cover = build(rs, TorusSpec(*q.gamma0_basis)) if q.kind == "klein" else None
    out = {}
    for rep in rs.rep_names:
        partner_walks, partner_semi = lifted[rs.complement(rep)]
        products = {
            "zeta": walks[rep],
            "semi": semi[rep],
            "zeta2": zeta2[rep],
            "l_poly": l_poly[rep],
            "corr": corr[rep],
            "partner_walks": partner_walks,
            "partner_semi": partner_semi,
            "gallery_neg": zeta2[rep].negate_u(),
            "semi_axis": _ONE,
        }
        if cover is not None:
            delta = q.delta(rep)
            products["semi_axis"] = axis_factor(q.k_gamma, (2 - delta) * (1 - q.m_axes))
            products["cover"] = build_walk_system(cover, rep).product
            products["cover_axis"] = axis_factor(q.k_gamma, q.m_axes * (2 - delta))
        out[rep] = products
    return out


def verify(q: QuotientGroup, order: Optional[int] = None) -> VerificationReport:
    """Run the full battery of exact identities for one quotient.

    order is the u-order reported in the report; when omitted it is
    derived from the degree bounds.  An explicitly passed insufficient
    order raises OrderInsufficientError naming the bound, and one above
    MAX_ORDER raises SpecValidationError (resolve_order).  It sizes no
    table: P is read off the walk progressions in closed form, and each
    count record compares the census with its system at every length, as
    two divisor-sum dicts (_log_compare).

    Every record is built by one constructor and holds exactly when its
    detail is empty.  A per-rep identity is one check per rep, run by
    one driver: each for the count and parity records, balanced for the
    product records, which records the reason "l-reconstruction failed"
    in place of every row that needs P when the rep has none.
    """
    rs = q.rs
    bundle = zeta_bundle(q, order)
    order, walks, zeta_semi, zeta2, l_poly, l_failure, corr = bundle
    products = _rep_products(q, bundle)
    records: list = []

    def record(identity_id: str, statement: str, detail: dict) -> None:
        records.append(VerifyRecord(identity_id, statement, not detail, detail))

    def each(identity_id: str, statement: str, check) -> None:
        """Record identity_id[rep] for every rep with check(rep)'s detail;
        no record where it returns None."""
        for rep in rs.rep_names:
            detail = check(rep)
            if detail is not None:
                record(f"{identity_id}[{rep}]", statement, detail)

    def balanced(applies: str) -> None:
        """Record, for every rep, each row of _BALANCES that applies to
        `applies`: empty when its terms balance, else the detail that its
        compare gives on its two sides, which only then are built."""
        for row_applies, identity_id, statement, lhs, rhs, kind in _BALANCES:
            if row_applies != applies:
                continue
            for rep in rs.rep_names:
                named = products[rep]
                if l_poly[rep] is None and any(name == "l_poly" for name, _ in lhs + rhs):
                    detail = {"reason": "l-reconstruction failed"}
                elif _balances(named, lhs, rhs):
                    detail = {}
                else:
                    compare = _ratfunc_compare if kind == "ratfunc" else _product_poly_compare
                    detail = compare(_side(named, lhs), _side(named, rhs))
                record(f"{identity_id}[{rep}]", statement, detail)

    # the three zeta logs versus the census counts
    each(
        "walk-log-counts",
        "log of the walk zeta matches corner-free closed walk counts",
        lambda rep: _log_compare(walks[rep], 2, census._walk_progressions(q, rep)[1], "geodesic"),
    )
    each(
        "half-step-log-counts",
        "log of the half-step zeta matches semi-rational closing counts",
        lambda rep: _log_compare(zeta_semi[rep], 1, census._semi_progressions(q, rep), "semi"),
    )
    each(
        "gallery-log-counts",
        "log of the gallery zeta matches closed gallery counts",
        lambda rep: _log_compare(zeta2[rep], 2, census._gallery_progressions(q, rep), "gallery"),
    )

    # L-polynomial reconstruction from the closed-walk trace series:
    # l_failure[rep] is empty exactly when P was found
    each(
        "l-reconstruction",
        "exp of the closed-walk count series has a bounded-degree integer reciprocal polynomial",
        lambda rep: dict(l_failure[rep]),
    )

    if q.kind == "torus":
        balanced("torus")
        # every torus walk closes without a corner: the census's closed
        # walks against the walk zeta, whose closings keep the weight
        each(
            "walks-close-without-corners",
            "closed walk and geodesic walk counts agree on a torus",
            lambda rep: _log_compare(walks[rep], 2, census._walk_progressions(q, rep)[0], "walk"),
        )
    else:
        balanced("klein")
    balanced("both")

    if q.kind == "klein":
        # parity of the axis offset versus the glide step ratio
        ok = (
            q.k_gamma % q.n_gamma == 0
            and (q.k_gamma // q.n_gamma) % 2 == q.b % 2
            and q.m_axes == (2 if q.b % 2 == 0 else 0)
            and not (rs.kind == "C2" and q.n_gamma == 1 and q.b % 2 == 1)
        )
        record(
            "axis-parity",
            "axis offset parity matches the glide step ratio parity",
            {} if ok else {"b": q.b, "k": q.k_gamma, "n": q.n_gamma, "m_axes": q.m_axes},
        )
        # glide line counts over a window match the predicted cardinality
        record(
            "glide-line-count",
            "glide-moved lattice points in the fundamental domain number "
            "k or zero, equally for both glides",
            _glide_line_scan(q),
        )

    # parity of cycle lengths where the type structure forces evenness
    def odd_cycle(rep: str) -> Optional[dict]:
        checks = []
        if rs.kind == "C2" and rep == "spin":
            checks.append(("spin walks", walks[rep]))
        # gallery labels only return after an even number of steps, except
        # on A2 Klein bottles where the glide swaps the off-axis directions
        if q.kind == "torus" or (rs.kind == "C2" and rep == q.type_rep):
            checks.append(("galleries", zeta2[rep]))
        for label, z in checks:
            # both systems step by u = w**2
            bad = [ell for ell, _ in _cycles(z, 2) if ell % 2 != 0]
            if bad:
                return {"which": label, "odd_cycle_length": bad[0]}
        return {} if checks else None

    each("parity-evenness", "cycle lengths are even where type alternation forces it", odd_cycle)

    return VerificationReport(rs.kind, q.kind, order, tuple(records))
