"""The identity battery: every relation the package promises, checked exactly.

Each record compares two independently computed objects.  Rational
function identities are decided by cross-multiplied integer polynomial
equality, never numerically and never by truncation.  Count-versus-log
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

from .algebra import NotPolynomialWithinBound, Poly, RationalFunctionW
# count_closed_walks is not called here; it stays bound because
# bench/selftest.py checks that the tracer wraps it in this module
from .census import (  # noqa: F401
    count_closed_walks,
    gallery_count_table,
    geodesic_count_table,
    lambda_set_size,
    semi_count_table,
    walk_count_table,
)
from .quotient import QuotientGroup, TorusSpec, build
from .zeta import (
    OrderInsufficientError,
    axis_factor,
    build_gallery_system,
    build_semi_system,
    build_walk_system,
    correction_factor,
    l_poly_from_counts,
    required_order,
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


def _ratfunc_json(f: RationalFunctionW) -> dict:
    return {"num": _poly_json(f.num), "den": _poly_json(f.den), "var": "w"}


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


def _ratfunc_compare(lhs: RationalFunctionW, rhs: RationalFunctionW) -> dict:
    """Cross-multiplied comparison detail; empty when equal."""
    out = _poly_compare(lhs.num * rhs.den, rhs.num * lhs.den)
    if out:
        out = {
            "lhs": _ratfunc_json(lhs),
            "rhs": _ratfunc_json(rhs),
            **out,
        }
    return out


def _count_compare(pairs) -> dict:
    for n, lhs, rhs in pairs:
        if lhs != rhs:
            return {"first_mismatch_n": n, "lhs": lhs, "rhs": rhs}
    return {}


def _closed_paths(cycle_lengths, n: int) -> int:
    return sum(ell for ell in cycle_lengths if n % ell == 0)


@dataclass
class _RepData:
    zeta: RationalFunctionW
    zeta_semi: RationalFunctionW
    zeta2: RationalFunctionW
    walk_cycles: list
    semi_cycles: list
    gallery_cycles: list
    counts_n: tuple
    counts_geo: tuple
    counts_semi: tuple
    counts_gal: tuple
    corr: RationalFunctionW
    l_poly: Optional[Poly]
    l_failure: dict


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
    )


def verify(q: QuotientGroup, order: Optional[int] = None) -> VerificationReport:
    """Run the full battery of exact identities for one quotient.

    order is the u-order used for L-polynomial reconstructions; when
    omitted it is derived from the degree bounds.  An explicitly passed
    insufficient order raises OrderInsufficientError naming the bound.
    """
    req = required_order(q)
    if order is None:
        order = max(req, 48)
    if order < req:
        raise OrderInsufficientError(order, req)

    rs = q.rs
    data = {rep: _collect(q, rep, order) for rep in rs.rep_names}
    cover = None
    if q.kind == "klein":
        cover = build(rs, TorusSpec(*q.gamma0_basis))
    records: list = []
    add = records.append

    # walk zeta log versus no-corner census counts
    for rep in rs.rep_names:
        d = data[rep]
        pairs = [
            (n, d.counts_geo[n - 1], _closed_paths(d.walk_cycles, n))
            for n in range(1, len(d.counts_geo) + 1)
        ]
        detail = _count_compare(pairs)
        add(
            VerifyRecord(
                f"walk-log-counts[{rep}]",
                "log of the walk zeta matches corner-free closed walk counts",
                not detail,
                detail,
            )
        )

    # half-step zeta log versus semi-rational closing counts
    for rep in rs.rep_names:
        d = data[rep]
        pairs = [
            (j, d.counts_semi[j - 1], _closed_paths(d.semi_cycles, j))
            for j in range(1, len(d.counts_semi) + 1)
        ]
        detail = _count_compare(pairs)
        add(
            VerifyRecord(
                f"half-step-log-counts[{rep}]",
                "log of the half-step zeta matches semi-rational closing counts",
                not detail,
                detail,
            )
        )

    # gallery zeta log versus gallery census counts
    for rep in rs.rep_names:
        d = data[rep]
        pairs = [
            (n, d.counts_gal[n - 1], _closed_paths(d.gallery_cycles, n))
            for n in range(1, len(d.counts_gal) + 1)
        ]
        detail = _count_compare(pairs)
        add(
            VerifyRecord(
                f"gallery-log-counts[{rep}]",
                "log of the gallery zeta matches closed gallery counts",
                not detail,
                detail,
            )
        )

    # L-polynomial reconstruction from the closed-walk trace series
    for rep in rs.rep_names:
        d = data[rep]
        holds = d.l_poly is not None
        add(
            VerifyRecord(
                f"l-reconstruction[{rep}]",
                "exp of the closed-walk count series has a bounded-degree "
                "integer reciprocal polynomial",
                holds,
                dict(d.l_failure),
            )
        )

    if q.kind == "torus":
        # three-way equality: walk zeta = trivial-weight-cleared L = closed form
        for rep in rs.rep_names:
            d = data[rep]
            if d.l_poly is None:
                add(
                    VerifyRecord(
                        f"torus-three-way[{rep}]",
                        "walk zeta equals reciprocal L-polynomial and closed form",
                        False,
                        {"reason": "l-reconstruction failed"},
                    )
                )
                continue
            closed = torus_closed_form(q, rep)
            detail = _ratfunc_compare(d.zeta, RationalFunctionW.reciprocal_of(d.l_poly))
            if not detail:
                detail = _ratfunc_compare(d.zeta, closed)
            add(
                VerifyRecord(
                    f"torus-three-way[{rep}]",
                    "walk zeta equals reciprocal L-polynomial and closed form",
                    not detail,
                    detail,
                )
            )

        # every torus walk closes without a corner
        for rep in rs.rep_names:
            d = data[rep]
            depth = min(CORNER_DEPTH, len(d.counts_geo))
            pairs = [
                (n, d.counts_n[n - 1], d.counts_geo[n - 1])
                for n in range(1, depth + 1)
            ]
            detail = _count_compare(pairs)
            add(
                VerifyRecord(
                    f"walks-close-without-corners[{rep}]",
                    "closed walk and geodesic walk counts agree on a torus",
                    not detail,
                    detail,
                )
            )
    else:
        # L versus walk zeta with the glide-axis correction factor
        for rep in rs.rep_names:
            d = data[rep]
            if d.l_poly is None:
                add(
                    VerifyRecord(
                        f"l-zeta-axis-correction[{rep}]",
                        "reciprocal L-polynomial equals walk zeta times axis factor",
                        False,
                        {"reason": "l-reconstruction failed"},
                    )
                )
                continue
            lhs = RationalFunctionW.reciprocal_of(d.l_poly)
            rhs = d.zeta * d.corr
            detail = _ratfunc_compare(lhs, rhs)
            add(
                VerifyRecord(
                    f"l-zeta-axis-correction[{rep}]",
                    "reciprocal L-polynomial equals walk zeta times axis factor",
                    not detail,
                    detail,
                )
            )

        # squared comparison against the independently built double cover
        for rep in rs.rep_names:
            d = data[rep]
            z0 = build_walk_system(cover, rep).zeta()
            factor = axis_factor(q.k_gamma, q.m_axes * (2 - q.delta(rep)))
            detail = _ratfunc_compare(d.zeta ** 2, z0 * factor)
            add(
                VerifyRecord(
                    f"double-cover-square[{rep}]",
                    "squared walk zeta equals the double cover zeta times the "
                    "rational-axis factor",
                    not detail,
                    detail,
                )
            )

    # half-step zeta against walk zeta
    for rep in rs.rep_names:
        d = data[rep]
        if q.kind == "torus":
            rhs = d.zeta
        else:
            e = (2 - q.delta(rep)) * (1 - q.m_axes)
            rhs = d.zeta * axis_factor(q.k_gamma, e)
        detail = _ratfunc_compare(d.zeta_semi, rhs)
        add(
            VerifyRecord(
                f"half-step-vs-walk[{rep}]",
                "half-step zeta equals walk zeta up to the semi-rational axis factor",
                not detail,
                detail,
            )
        )

    # gallery zeta against the partner's half-step zeta
    for rep in rs.rep_names:
        d = data[rep]
        partner = rs.complement(rep)
        n_p = rs.rep(partner).n_value
        zs = data[partner].zeta_semi
        rhs = (zs.substitute(2) if n_p == 1 else zs) ** n_p
        detail = _ratfunc_compare(d.zeta2, rhs)
        add(
            VerifyRecord(
                f"gallery-vs-half-step[{rep}]",
                "gallery zeta equals the partner half-step zeta after the "
                "length reparametrization",
                not detail,
                detail,
            )
        )

    # the main identity: L from the two walk zetas and the gallery zeta at -u
    for rep in rs.rep_names:
        d = data[rep]
        partner = rs.complement(rep)
        n_p = rs.rep(partner).n_value
        dz_partner = data[partner].zeta.den
        sub = dz_partner.substitute_power(2) if n_p == 1 else dz_partner
        if d.l_poly is None:
            add(
                VerifyRecord(
                    f"main-identity[{rep}]",
                    "trivial-weight-cleared L equals walk zetas over gallery "
                    "zeta at -u",
                    False,
                    {"reason": "l-reconstruction failed"},
                )
            )
            continue
        lhs = d.zeta.den * (sub ** n_p)
        rhs = d.l_poly * d.zeta2.den.negate_u()
        detail = _poly_compare(lhs, rhs)
        add(
            VerifyRecord(
                f"main-identity[{rep}]",
                "trivial-weight-cleared L equals walk zetas over gallery "
                "zeta at -u",
                not detail,
                detail,
            )
        )

    # quotient of partner walk zeta by gallery zeta at -u is the axis factor
    for rep in rs.rep_names:
        d = data[rep]
        partner = rs.complement(rep)
        n_p = rs.rep(partner).n_value
        dz_partner = data[partner].zeta.den
        sub = dz_partner.substitute_power(2) if n_p == 1 else dz_partner
        g_neg = d.zeta2.den.negate_u()
        lhs = g_neg * d.corr.den
        rhs = (sub ** n_p) * d.corr.num
        detail = _poly_compare(lhs, rhs)
        add(
            VerifyRecord(
                f"gallery-walk-quotient[{rep}]",
                "partner walk zeta over gallery zeta at -u equals the axis "
                "correction factor",
                not detail,
                detail,
            )
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
        add(
            VerifyRecord(
                "axis-parity",
                "axis offset parity matches the glide step ratio parity",
                ok,
                {}
                if ok
                else {"b": q.b, "k": q.k_gamma, "n": q.n_gamma, "m_axes": q.m_axes},
            )
        )

        # glide line counts over a window match the predicted cardinality
        detail = _glide_line_scan(q)
        add(
            VerifyRecord(
                "glide-line-count",
                "glide-moved lattice points in the fundamental domain number "
                "k or zero, equally for both glides",
                not detail,
                detail,
            )
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
        add(
            VerifyRecord(
                f"parity-evenness[{rep}]",
                "cycle lengths are even where type alternation forces it",
                not detail,
                detail,
            )
        )

    return VerificationReport(rs.kind, q.kind, order, tuple(records))
