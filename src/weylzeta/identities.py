"""The identity battery: every relation the package promises, checked exactly.

Each record compares two independently computed objects.  Every zeta
function, correction factor and L-polynomial is a CycleProduct, so a
rational-function identity is an equality of exponent dicts, decided by
integer arithmetic: never numerically, never by truncation and without
dense polynomials.  The L-polynomial enters once: l_poly_from_counts
hands on the Moebius product of the closed-walk counts as P's
CycleProduct when a cyclotomic degree check shows it is P itself, and
expands it only to find the failing order when it is not.  So a
successful run expands no polynomial: coefficient lists are expanded
only for the detail of a failed record, each cross product there as
one merged factor dict.  Count-versus-log identities compare closed-form
census values against the zeta logarithm's exact coefficients, one
table per system built from its cycle lengths.

The verification order is derived from the degree bounds of the
L-polynomial reconstructions and failures to meet it are reported
loudly, never silently truncated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Optional

from .algebra import (
    CycleProduct,
    NotCycleProduct,
    NotPolynomialWithinBound,
    _expand,
    spread,
)
from .census import (
    gallery_count_table,
    geodesic_count_table,
    glide_line_counter,
    semi_count_table,
    walk_count_table,
)
from .quotient import QuotientGroup, TorusSpec, build
from .zeta import (
    LPolynomial,
    axis_factor,
    build_gallery_system,
    build_semi_system,
    build_walk_system,
    correction_factor,
    l_poly_from_counts,
    resolve_order,
    torus_closed_form,
)

WALK_LOG_DEPTH = 24
SEMI_LOG_DEPTH = 24
GALLERY_LOG_DEPTH = 10
CORNER_DEPTH = 12
GLIDE_WINDOW = 4


@dataclass(frozen=True)
class VerifyRecord:
    identity_id: str
    statement: str
    holds: bool
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class VerificationReport:
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


def _count_compare(pairs) -> dict:
    for n, lhs, rhs in pairs:
        if lhs != rhs:
            return {"first_mismatch_n": n, "lhs": lhs, "rhs": rhs}
    return {}


def _cycles(z: CycleProduct, step_in_w: int) -> list:
    """The (ell, c_ell) pairs of a transfer system's zeta
    z = prod (1 - w**(step_in_w * ell))**-c_ell, by increasing ell."""
    return [(e // step_in_w, -k) for e, k in z.items()]


def _closed_path_table(z: CycleProduct, step_in_w: int, max_n: int) -> list:
    """Closed paths of n = 1..max_n steps of the system with zeta z: the sum
    of ell * c_ell over the (ell, c_ell) of _cycles(z, step_in_w) with ell
    | n, n times the coefficient of w**(step_in_w * n) in log z.  Each ell
    adds its term at ell, 2 ell, ... with one slice update."""
    table = [0] * max_n
    for ell, c in _cycles(z, step_in_w):
        table[ell - 1 :: ell] = [t + ell * c for t in table[ell - 1 :: ell]]
    return table


@dataclass
class _RepData:
    zeta: CycleProduct
    zeta_semi: CycleProduct
    zeta2: CycleProduct
    counts_n: tuple
    counts_geo: tuple
    counts_semi: tuple
    counts_gal: tuple
    corr: CycleProduct
    l_poly: Optional[LPolynomial]
    l_failure: dict
    l_product: Optional[CycleProduct]
    l_reason: str


def _glide_line_scan(q: QuotientGroup) -> dict:
    """First mismatch between glide line counts and the predicted value
    over the window v = c*alpha + d*beta, |c|, |d| <= GLIDE_WINDOW, d != 0,
    v in the coroot lattice, in the order m, c, d; empty when none.

    A count is k exactly when v is the vector of its beta-row (row(d),
    never for d < 0) and 0 otherwise.  The prediction is k only at the one
    c, if any, with 2 (c alpha + d beta, alpha) = k m (alpha, alpha) and
    d > 0, and 0 otherwise.  So off the rows d > 0 both are 0, and on one
    such row only three vectors can mismatch: the two glides' row
    vectors and the predicted one.  Only those are evaluated, each row
    vector computed once per glide power.
    """
    rs, alpha, beta = q.rs, q.alpha, q.beta
    aa, ab = rs.pairing(alpha, alpha), rs.pairing(alpha, beta)
    for m in (1, 3):
        count_s = glide_line_counter(q, m)
        count_t = glide_line_counter(q, m, glide="tsigma")
        target = q.k_gamma * m * aa
        candidates = set()
        for d in range(1, GLIDE_WINDOW + 1):
            for count in (count_s, count_t):
                row = count.row(d)
                if row is not None:
                    candidates.add((q.alpha_beta_coords(row)[0], d))
            c, r = divmod(target - 2 * d * ab, 2 * aa)
            if not r:
                candidates.add((c, d))
        for c, d in sorted(candidates):
            v = (c * alpha[0] + d * beta[0], c * alpha[1] + d * beta[1])
            if abs(c) > GLIDE_WINDOW or not rs.in_coroot_lattice(v):
                continue
            expected = q.k_gamma if 2 * rs.pairing(v, alpha) == target else 0
            got_s, got_t = count_s(v), count_t(v)
            if got_s != expected or got_t != got_s:
                return {
                    "m": m,
                    "v": list(v),
                    "expected": expected,
                    "sigma_count": got_s,
                    "tsigma_count": got_t,
                }
    return {}


def _collect(q: QuotientGroup, rep: str, order: int) -> _RepData:
    counts_n = walk_count_table(q, rep, order).values
    counts_geo = geodesic_count_table(q, rep, min(WALK_LOG_DEPTH, order)).values
    counts_semi = semi_count_table(q, rep, min(SEMI_LOG_DEPTH, 2 * order)).values
    counts_gal = gallery_count_table(q, rep, min(GALLERY_LOG_DEPTH, order)).values
    l_poly, l_failure = None, {}
    try:
        l_poly = l_poly_from_counts(counts_n, q.N * len(q.rs.weights(rep)))
    except NotPolynomialWithinBound as exc:
        l_failure = {"nonzero_tail_exponent": exc.exponent}
    except AssertionError as exc:
        l_failure = {"reason": str(exc)}
    l_product, l_reason = None, "l-reconstruction failed"
    if l_poly is not None:
        try:
            l_product = l_poly.cycle_product()
        except NotCycleProduct as exc:
            l_reason = f"l-polynomial is not a cycle product: {exc}"
    return _RepData(
        zeta=build_walk_system(q, rep).zeta(),
        zeta_semi=build_semi_system(q, rep).zeta(),
        zeta2=build_gallery_system(q, rep).zeta(),
        counts_n=counts_n,
        counts_geo=counts_geo,
        counts_semi=counts_semi,
        counts_gal=counts_gal,
        corr=correction_factor(q, rep),
        l_poly=l_poly,
        l_failure=l_failure,
        l_product=l_product,
        l_reason=l_reason,
    )


def verify(q: QuotientGroup, order: Optional[int] = None) -> VerificationReport:
    """Run the full battery of exact identities for one quotient.

    order is the u-order used for L-polynomial reconstructions; when
    omitted it is derived from the degree bounds.  An explicitly passed
    insufficient order raises OrderInsufficientError naming the bound,
    and one above MAX_ORDER raises SpecValidationError (resolve_order).
    """
    order = resolve_order(q, order)
    rs = q.rs
    data = {rep: _collect(q, rep, order) for rep in rs.rep_names}
    cover = None
    if q.kind == "klein":
        cover = build(rs, TorusSpec(*q.gamma0_basis))
    records: list = []
    add = records.append

    def record(identity_id: str, statement: str, detail: dict) -> None:
        add(VerifyRecord(identity_id, statement, not detail, detail))

    def l_missing(d: _RepData, identity_id: str, statement: str) -> bool:
        """Record a failure and return True when P is not available."""
        if d.l_product is None:
            add(VerifyRecord(identity_id, statement, False, {"reason": d.l_reason}))
        return d.l_product is None

    # the three zeta logs versus the census counts
    for key, statement, zeta, step_in_w, counts in (
        (
            "walk-log-counts",
            "log of the walk zeta matches corner-free closed walk counts",
            "zeta",
            2,
            "counts_geo",
        ),
        (
            "half-step-log-counts",
            "log of the half-step zeta matches semi-rational closing counts",
            "zeta_semi",
            1,
            "counts_semi",
        ),
        (
            "gallery-log-counts",
            "log of the gallery zeta matches closed gallery counts",
            "zeta2",
            2,
            "counts_gal",
        ),
    ):
        for rep in rs.rep_names:
            d = data[rep]
            table = getattr(d, counts)
            paths = _closed_path_table(getattr(d, zeta), step_in_w, len(table))
            pairs = zip(range(1, len(table) + 1), table, paths)
            record(f"{key}[{rep}]", statement, _count_compare(pairs))

    # L-polynomial reconstruction from the closed-walk trace series
    for rep in rs.rep_names:
        d = data[rep]
        add(
            VerifyRecord(
                f"l-reconstruction[{rep}]",
                "exp of the closed-walk count series has a bounded-degree "
                "integer reciprocal polynomial",
                d.l_poly is not None,
                dict(d.l_failure),
            )
        )

    if q.kind == "torus":
        # three-way equality: walk zeta = trivial-weight-cleared L = closed form
        for rep in rs.rep_names:
            d = data[rep]
            identity_id = f"torus-three-way[{rep}]"
            statement = "walk zeta equals reciprocal L-polynomial and closed form"
            if not l_missing(d, identity_id, statement):
                detail = _ratfunc_compare(d.zeta, d.l_product.inverse())
                if not detail:
                    detail = _ratfunc_compare(d.zeta, torus_closed_form(q, rep))
                record(identity_id, statement, detail)

        # every torus walk closes without a corner
        for rep in rs.rep_names:
            d = data[rep]
            depth = min(CORNER_DEPTH, len(d.counts_geo))
            pairs = [
                (n, d.counts_n[n - 1], d.counts_geo[n - 1])
                for n in range(1, depth + 1)
            ]
            record(
                f"walks-close-without-corners[{rep}]",
                "closed walk and geodesic walk counts agree on a torus",
                _count_compare(pairs),
            )
    else:
        # L versus walk zeta with the glide-axis correction factor
        for rep in rs.rep_names:
            d = data[rep]
            identity_id = f"l-zeta-axis-correction[{rep}]"
            statement = "reciprocal L-polynomial equals walk zeta times axis factor"
            if not l_missing(d, identity_id, statement):
                detail = _ratfunc_compare(d.l_product.inverse(), d.zeta * d.corr)
                record(identity_id, statement, detail)

        # squared comparison against the independently built double cover
        for rep in rs.rep_names:
            z0 = build_walk_system(cover, rep).zeta()
            factor = axis_factor(q.k_gamma, q.m_axes * (2 - q.delta(rep)))
            record(
                f"double-cover-square[{rep}]",
                "squared walk zeta equals the double cover zeta times the "
                "rational-axis factor",
                _ratfunc_compare(data[rep].zeta ** 2, z0 * factor),
            )

    # half-step zeta against walk zeta
    for rep in rs.rep_names:
        d = data[rep]
        if q.kind == "torus":
            rhs = d.zeta
        else:
            e = (2 - q.delta(rep)) * (1 - q.m_axes)
            rhs = d.zeta * axis_factor(q.k_gamma, e)
        record(
            f"half-step-vs-walk[{rep}]",
            "half-step zeta equals walk zeta up to the semi-rational axis factor",
            _ratfunc_compare(d.zeta_semi, rhs),
        )

    # the partner's zetas after the length reparametrization (u -> u**2
    # when the partner's n-value is 1), to the power n; the gallery zeta at -u
    partner_walks, partner_semi, gallery_neg = {}, {}, {}
    for rep in rs.rep_names:
        partner = rs.complement(rep)
        n_p = rs.rep(partner).n_value
        m = 2 if n_p == 1 else 1
        partner_walks[rep] = data[partner].zeta.substitute(m) ** n_p
        partner_semi[rep] = data[partner].zeta_semi.substitute(m) ** n_p
        gallery_neg[rep] = data[rep].zeta2.negate_u()

    # gallery zeta against the partner's half-step zeta
    for rep in rs.rep_names:
        record(
            f"gallery-vs-half-step[{rep}]",
            "gallery zeta equals the partner half-step zeta after the "
            "length reparametrization",
            _ratfunc_compare(data[rep].zeta2, partner_semi[rep]),
        )

    # the main identity: L from the two walk zetas and the gallery zeta at -u
    for rep in rs.rep_names:
        d = data[rep]
        identity_id = f"main-identity[{rep}]"
        statement = (
            "trivial-weight-cleared L equals walk zetas over gallery zeta at -u"
        )
        if not l_missing(d, identity_id, statement):
            lhs = (d.zeta * partner_walks[rep]).inverse()
            rhs = d.l_product / gallery_neg[rep]
            record(identity_id, statement, _product_poly_compare(lhs, rhs))

    # quotient of partner walk zeta by gallery zeta at -u is the axis factor
    for rep in rs.rep_names:
        record(
            f"gallery-walk-quotient[{rep}]",
            "partner walk zeta over gallery zeta at -u equals the axis "
            "correction factor",
            _product_poly_compare(partner_walks[rep] / gallery_neg[rep], data[rep].corr),
        )

    if q.kind == "klein":
        # parity of the axis offset versus the glide step ratio
        ratio = q.k_gamma // q.n_gamma
        ok = (
            q.k_gamma % q.n_gamma == 0
            and ratio % 2 == q.b % 2
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
    for rep in rs.rep_names:
        d = data[rep]
        checks = []
        if rs.kind == "C2" and rep == "spin":
            checks.append(("spin walks", d.zeta))
        # gallery labels only return after an even number of steps, except
        # on A2 Klein bottles where the glide swaps the off-axis directions
        if q.kind == "torus" or (rs.kind == "C2" and rep == q.type_rep):
            checks.append(("galleries", d.zeta2))
        if not checks:
            continue
        detail = {}
        for label, z in checks:
            # both systems step by u = w**2
            bad = [ell for ell, _ in _cycles(z, 2) if ell % 2 != 0]
            if bad:
                detail = {"which": label, "odd_cycle_length": bad[0]}
                break
        record(
            f"parity-evenness[{rep}]",
            "cycle lengths are even where type alternation forces it",
            detail,
        )

    return VerificationReport(rs.kind, q.kind, order, tuple(records))
