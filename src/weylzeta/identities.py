"""The identity battery: every relation the package promises, checked exactly.

Each record compares two independently computed objects.  Every zeta
function, correction factor and L-polynomial is a CycleProduct, so a
rational-function identity is an equality of exponent dicts, decided by
integer arithmetic: never numerically, never by truncation and without
dense polynomials.  The L-polynomial enters once: l_poly_from_counts
takes the Moebius exponents of the closed-walk counts, expands their
product once for P's integer coefficients and its vanishing tail, and
hands on the product as P's CycleProduct when a cyclotomic degree check
shows it is P itself.  Dense polynomials are built only for the detail
of a failed record.  Count-versus-log
identities compare closed-form census values against divisor sums over
the cycle structure, which is the exact coefficient of the zeta
logarithm at that order.

The verification order is derived from the degree bounds of the
L-polynomial reconstructions and failures to meet it are reported
loudly, never silently truncated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .algebra import CycleProduct, NotCycleProduct, NotPolynomialWithinBound, Poly
from .census import (
    gallery_count_table,
    geodesic_count_table,
    lambda_set_size,
    semi_count_table,
    walk_count_table,
)
from .quotient import QuotientGroup, TorusSpec, build
from .zeta import (
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


def _poly_json(p: Poly) -> list:
    return [str(c) if c.denominator != 1 else c.numerator for c in p.coeffs]


def _ratfunc_json(f: CycleProduct) -> dict:
    num, den = f.num_den()
    return {"num": _poly_json(num), "den": _poly_json(den), "var": "w"}


def _poly_compare(lhs: Poly, rhs: Poly) -> dict:
    """Empty dict when equal, else the first mismatching w-coefficient."""
    if lhs == rhs:
        return {}
    top = max(lhs.degree, rhs.degree)
    for k in range(top + 1):
        a, b = lhs.coefficient(k), rhs.coefficient(k)
        if a != b:
            return {
                "first_mismatch_exponent": k,
                "lhs_coefficient": str(a),
                "rhs_coefficient": str(b),
            }
    return {"first_mismatch_exponent": None}


def _cross(lhs: CycleProduct, rhs: CycleProduct) -> tuple:
    """The dense cross products lhs.num * rhs.den and rhs.num * lhs.den."""
    (ln, ld), (rn, rd) = lhs.num_den(), rhs.num_den()
    return ln * rd, rn * ld


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


def _closed_paths(cycle_lengths, n: int) -> int:
    return sum(ell for ell in cycle_lengths if n % ell == 0)


@dataclass
class _RepData:
    zeta: CycleProduct
    zeta_semi: CycleProduct
    zeta2: CycleProduct
    walk_cycles: list
    semi_cycles: list
    gallery_cycles: list
    counts_n: tuple
    counts_geo: tuple
    counts_semi: tuple
    counts_gal: tuple
    corr: CycleProduct
    l_poly: Optional[Poly]
    l_failure: dict
    l_product: Optional[CycleProduct]
    l_reason: str


def _glide_line_scan(q: QuotientGroup) -> dict:
    """First mismatch between glide line counts and the predicted value."""
    rs = q.rs
    aa = rs.pairing(q.alpha, q.alpha)
    for m in (1, 3):
        for c in range(-GLIDE_WINDOW, GLIDE_WINDOW + 1):
            for dcoef in range(-GLIDE_WINDOW, GLIDE_WINDOW + 1):
                if dcoef == 0:
                    continue
                v = (
                    c * q.alpha[0] + dcoef * q.beta[0],
                    c * q.alpha[1] + dcoef * q.beta[1],
                )
                if not rs.in_coroot_lattice(v):
                    continue
                admissible = (
                    dcoef > 0 and 2 * rs.pairing(v, q.alpha) == q.k_gamma * m * aa
                )
                expected = q.k_gamma if admissible else 0
                got_s = lambda_set_size(q, m, v)
                got_t = lambda_set_size(q, m, v, glide="tsigma")
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
    walks = build_walk_system(q, rep)
    semi = build_semi_system(q, rep)
    gal = build_gallery_system(q, rep)
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
        zeta=walks.zeta(),
        zeta_semi=semi.zeta(),
        zeta2=gal.zeta(),
        walk_cycles=walks.cycle_lengths(),
        semi_cycles=semi.cycle_lengths(),
        gallery_cycles=gal.cycle_lengths(),
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
    for key, statement, cycles, counts in (
        (
            "walk-log-counts",
            "log of the walk zeta matches corner-free closed walk counts",
            "walk_cycles",
            "counts_geo",
        ),
        (
            "half-step-log-counts",
            "log of the half-step zeta matches semi-rational closing counts",
            "semi_cycles",
            "counts_semi",
        ),
        (
            "gallery-log-counts",
            "log of the gallery zeta matches closed gallery counts",
            "gallery_cycles",
            "counts_gal",
        ),
    ):
        for rep in rs.rep_names:
            d = data[rep]
            table, ells = getattr(d, counts), getattr(d, cycles)
            pairs = [
                (n, table[n - 1], _closed_paths(ells, n))
                for n in range(1, len(table) + 1)
            ]
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
            checks.append(("spin walks", d.walk_cycles, 2))
        # gallery labels only return after an even number of steps, except
        # on A2 Klein bottles where the glide swaps the off-axis directions
        if q.kind == "torus" or (rs.kind == "C2" and rep == q.type_rep):
            checks.append(("galleries", d.gallery_cycles, 2))
        if not checks:
            continue
        detail = {}
        for label, cycles, mod in checks:
            bad = [ell for ell in cycles if ell % mod != 0]
            if bad:
                detail = {"which": label, "odd_cycle_length": bad[0]}
                break
        record(
            f"parity-evenness[{rep}]",
            "cycle lengths are even where type alternation forces it",
            detail,
        )

    return VerificationReport(rs.kind, q.kind, order, tuple(records))
