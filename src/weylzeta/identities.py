"""The identity battery: every relation the package promises, checked exactly.

The zetas of walks, half-steps and galleries, P and the correction
factors come from zeta_bundle, the one producer of a quotient's zeta
data, which the `zeta` command prints too.  verify adds only its own
work: the census tables the zeta logs and the corner check are compared
with, the double cover of a Klein bottle, and the records.

Each record compares two independently computed objects.  Every zeta
function, correction factor and L-polynomial is a CycleProduct, so a
rational-function identity is an equality of exponent dicts, decided by
integer arithmetic: never numerically, never by truncation and without
dense polynomials.  The L-polynomial enters once, as a CycleProduct:
l_poly_from_counts reads it off one period of the closed-walk counts,
or records why there is none, and every record that needs P fails with
the reason "l-reconstruction failed" when there is none.  So a
successful run expands no polynomial: coefficient lists are expanded
only for the detail of a failed record, each cross product there as
one merged factor dict.  Count-versus-log identities compare closed-form
census values against the zeta logarithm's exact coefficients, one
table per system built from its cycle lengths.

The order is the u-order the JSON reports, max(required_order(q), 48)
when omitted; an explicit one is checked against required_order and
MAX_ORDER (resolve_order).  It sizes no table.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import NamedTuple, Optional

from .algebra import CycleProduct, _expand, spread
from .census import (
    gallery_count_table,
    geodesic_count_table,
    glide_rows,
    semi_count_table,
    walk_count_table,
)
from .quotient import QuotientGroup, TorusSpec, build
from .zeta import axis_factor, build_walk_system, torus_closed_form, zeta_bundle

WALK_LOG_DEPTH = 24
SEMI_LOG_DEPTH = 24
GALLERY_LOG_DEPTH = 10
CORNER_DEPTH = 12
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


def _count_compare(pairs) -> dict:
    for n, lhs, rhs in pairs:
        if lhs != rhs:
            return {"first_mismatch_n": n, "lhs": lhs, "rhs": rhs}
    return {}


def _log_compare(z: CycleProduct, step_in_w: int, table) -> dict:
    """First n at which a census table of closed paths of n = 1..len(table)
    steps differs from the system with zeta z (_closed_path_table); empty
    when none."""
    n = len(table)
    return _count_compare(zip(range(1, n + 1), table, _closed_path_table(z, step_in_w, n)))


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
    in the rows of each glide power.
    """
    rs, alpha, beta = q.rs, q.alpha, q.beta
    aa, ab = rs.pairing(alpha, alpha), rs.pairing(alpha, beta)
    window = range(1, GLIDE_WINDOW + 1)
    for m in (1, 3):
        rows_s, rows_t = glide_rows(q, m, window), glide_rows(q, m, window, "tsigma")
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


def verify(q: QuotientGroup, order: Optional[int] = None) -> VerificationReport:
    """Run the full battery of exact identities for one quotient.

    order is the u-order reported in the report; when omitted it is
    derived from the degree bounds.  An explicitly passed insufficient
    order raises OrderInsufficientError naming the bound, and one above
    MAX_ORDER raises SpecValidationError (resolve_order).  It sizes no
    table: P is read off one period of the walk counts, and the census
    tables compared here have the fixed depths *_DEPTH.

    Every record is built by one constructor and holds exactly when its
    detail is empty.  A per-rep identity is one check per rep, run by
    one driver, which records the reason "l-reconstruction failed" in
    place of every check that needs P when the rep has none.
    """
    rs = q.rs
    order, walks, zeta_semi, zeta2, l_poly, l_failure, corr = zeta_bundle(q, order)
    # no depth needs clamping to the order: order >= required_order(q) =
    # 2 N (weights) + 8, and Gamma0 lies in the coroot lattice, of index 3
    # in A2 and 2 in C2 (a C2 Klein bottle's index is a multiple of 4), so
    # N >= 3 and order >= 26 on A2, and N >= 2 and order >= 24 on C2
    records: list = []

    def record(identity_id: str, statement: str, detail: dict) -> None:
        records.append(VerifyRecord(identity_id, statement, not detail, detail))

    def each(identity_id: str, statement: str, check, needs_l: bool = False) -> None:
        """Record identity_id[rep] for every rep with check(rep)'s detail;
        no record where it returns None."""
        for rep in rs.rep_names:
            if needs_l and l_poly[rep] is None:
                detail = {"reason": "l-reconstruction failed"}
            else:
                detail = check(rep)
            if detail is not None:
                record(f"{identity_id}[{rep}]", statement, detail)

    def l_product(rep: str) -> CycleProduct:
        return l_poly[rep].cycle_product()

    # the three zeta logs versus the census counts
    each(
        "walk-log-counts",
        "log of the walk zeta matches corner-free closed walk counts",
        lambda rep: _log_compare(walks[rep], 2, geodesic_count_table(q, rep, WALK_LOG_DEPTH)),
    )
    each(
        "half-step-log-counts",
        "log of the half-step zeta matches semi-rational closing counts",
        lambda rep: _log_compare(zeta_semi[rep], 1, semi_count_table(q, rep, SEMI_LOG_DEPTH)),
    )
    each(
        "gallery-log-counts",
        "log of the gallery zeta matches closed gallery counts",
        lambda rep: _log_compare(zeta2[rep], 2, gallery_count_table(q, rep, GALLERY_LOG_DEPTH)),
    )

    # L-polynomial reconstruction from the closed-walk trace series:
    # l_failure[rep] is empty exactly when P was found
    each(
        "l-reconstruction",
        "exp of the closed-walk count series has a bounded-degree integer reciprocal polynomial",
        lambda rep: dict(l_failure[rep]),
    )

    if q.kind == "torus":
        # three-way equality: walk zeta = trivial-weight-cleared L = closed form
        each(
            "torus-three-way",
            "walk zeta equals reciprocal L-polynomial and closed form",
            lambda rep: _ratfunc_compare(walks[rep], l_product(rep).inverse())
            or _ratfunc_compare(walks[rep], torus_closed_form(q, rep)),
            needs_l=True,
        )
        # every torus walk closes without a corner: the census's closed
        # walks against the walk zeta, whose closings keep the weight
        each(
            "walks-close-without-corners",
            "closed walk and geodesic walk counts agree on a torus",
            lambda rep: _log_compare(walks[rep], 2, walk_count_table(q, rep, CORNER_DEPTH)),
        )
    else:
        # L versus walk zeta with the glide-axis correction factor
        each(
            "l-zeta-axis-correction",
            "reciprocal L-polynomial equals walk zeta times axis factor",
            lambda rep: _ratfunc_compare(l_product(rep).inverse(), walks[rep] * corr[rep]),
            needs_l=True,
        )
        # squared comparison against the independently built double cover
        cover = build(rs, TorusSpec(*q.gamma0_basis))
        each(
            "double-cover-square",
            "squared walk zeta equals the double cover zeta times the rational-axis factor",
            lambda rep: _ratfunc_compare(
                walks[rep] ** 2,
                build_walk_system(cover, rep).zeta()
                * axis_factor(q.k_gamma, q.m_axes * (2 - q.delta(rep))),
            ),
        )

    # half-step zeta against walk zeta, times the semi-rational axis
    # factor on a Klein bottle
    each(
        "half-step-vs-walk",
        "half-step zeta equals walk zeta up to the semi-rational axis factor",
        lambda rep: _ratfunc_compare(
            zeta_semi[rep],
            walks[rep]
            if q.kind == "torus"
            else walks[rep] * axis_factor(q.k_gamma, (2 - q.delta(rep)) * (1 - q.m_axes)),
        ),
    )

    # the partner's zetas after the length reparametrization (u -> u**2
    # when the partner's n-value is 1), to the power n; the gallery zeta
    # at -u.  Two records read each of these.
    def partner_zeta(zetas: dict, rep: str) -> CycleProduct:
        n_p = rs.rep(rs.complement(rep)).n_value
        return zetas[rs.complement(rep)].substitute(2 if n_p == 1 else 1) ** n_p

    partner_walks = {rep: partner_zeta(walks, rep) for rep in rs.rep_names}
    gallery_neg = {rep: zeta2[rep].negate_u() for rep in rs.rep_names}

    each(
        "gallery-vs-half-step",
        "gallery zeta equals the partner half-step zeta after the length reparametrization",
        lambda rep: _ratfunc_compare(zeta2[rep], partner_zeta(zeta_semi, rep)),
    )
    # the main identity: L from the two walk zetas and the gallery zeta at -u
    each(
        "main-identity",
        "trivial-weight-cleared L equals walk zetas over gallery zeta at -u",
        lambda rep: _product_poly_compare(
            (walks[rep] * partner_walks[rep]).inverse(), l_product(rep) / gallery_neg[rep]
        ),
        needs_l=True,
    )
    # quotient of partner walk zeta by gallery zeta at -u is the axis factor
    each(
        "gallery-walk-quotient",
        "partner walk zeta over gallery zeta at -u equals the axis correction factor",
        lambda rep: _product_poly_compare(partner_walks[rep] / gallery_neg[rep], corr[rep]),
    )

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
