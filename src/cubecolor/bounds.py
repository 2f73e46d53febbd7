"""Exact evaluation of the explicit constants of the component-size bound.

All values are rationals.  The n-dependent guaranteed coefficient carries
an unspecified O(1/n) correction, so the tables flag every n-dependent
entry as asymptotic rather than pretending it is valid at small n.

Two published forms of the leading coefficient disagree by exactly a
factor of two (4^m versus 2^(2m-1)); both are computed and the
discrepancy is surfaced, never hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial


def _rat(x: Fraction) -> dict:
    """A rational as it appears in every JSON output of the package."""
    return {"exact": f"{x.numerator}/{x.denominator}", "approx": float(x)}


class BoundsError(ValueError):
    """Parameters outside the valid range 0 <= m < d."""


@dataclass
class BoundsTable:
    """Every explicit constant, evaluated exactly for one (d, m, n)."""

    d: int
    m: int
    n: int | None  # None: asymptotic table only
    f_eq5: Fraction  # 1 / ((m+1)! C(d,m) 2^(2m-1)), O(1/n) term omitted
    f_remark: Fraction  # 1 / ((m+1)! C(d,m) 4^m)
    h_eq4: Fraction  # (m+1)! C(d,m) 2^(2m-1)
    fbar_approx: Fraction  # 1 + h_eq4, the per-part volume blow-up cap
    g: dict[int, Fraction] = field(default_factory=dict)  # k -> C(d,k) 2^(2k-1)
    prior_2color: Fraction | None = None  # n^(d-1) - d^2 n^(d-2)
    asymptotic = True  # the O(1/n) summand is not known
    discrepancy_factor_two = True  # f_remark == f_eq5 / 2 always

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "m": self.m,
            "n": self.n,
            "f_eq5": _rat(self.f_eq5),
            "f_remark": _rat(self.f_remark),
            "h_eq4": _rat(self.h_eq4),
            "fbar_approx": _rat(self.fbar_approx),
            "g": {str(k): _rat(v) for k, v in self.g.items()},
            "prior_2color": None if self.prior_2color is None else _rat(self.prior_2color),
            "asymptotic": self.asymptotic,
            "discrepancy_factor_two": self.discrepancy_factor_two,
        }

    def to_text(self) -> str:
        lines = [f"constants for d={self.d}, m={self.m}" + (f", n={self.n}" if self.n else "")]
        lines.append(f"  h_eq4        = {self.h_eq4}")
        lines.append(f"  f_eq5        = {self.f_eq5}   (asymptotic: O(1/n) term unknown)")
        lines.append(f"  f_remark     = {self.f_remark}   (= f_eq5 / 2; factor-2 discrepancy)")
        lines.append(f"  fbar_approx  = {self.fbar_approx}   (approximate)")
        for k in sorted(self.g):
            lines.append(f"  g(d,{k})       = {self.g[k]}")
        if self.prior_2color is not None:
            lines.append(f"  prior_2color = {self.prior_2color}   (2-color bound at this n)")
        return "\n".join(lines)


def g_constant(d: int, k: int) -> Fraction:
    """Skeleton-volume constant C(d,k) * 2^(2k-1); at k=0 this is the
    formula artifact 1/2."""
    if not 0 <= k <= d:
        raise BoundsError(f"need 0 <= k <= d, got k={k}, d={d}")
    return Fraction(comb(d, k) * 2 ** (2 * k), 2)


def bound_table(d: int, m: int, n: int | None = None) -> BoundsTable:
    """Exact constants for the component-size bound with d axes and
    multiplicity m+1.  Requires 0 <= m < d."""
    if not 0 <= m < d:
        raise BoundsError(f"need 0 <= m < d, got m={m}, d={d}")
    h_eq4 = Fraction(factorial(m + 1) * comb(d, m) * 2 ** (2 * m), 2)
    f_eq5 = 1 / h_eq4
    f_remark = Fraction(1, factorial(m + 1) * comb(d, m) * 4**m)
    prior = None
    if n is not None:
        if n < 1:
            raise BoundsError("n must be >= 1")
        prior = Fraction(n ** (d - 1)) - Fraction(d * d) * (
            Fraction(n ** (d - 2)) if d >= 2 else Fraction(1, n)
        )
    return BoundsTable(
        d=d,
        m=m,
        n=n,
        f_eq5=f_eq5,
        f_remark=f_remark,
        h_eq4=h_eq4,
        fbar_approx=1 + h_eq4,
        g={k: g_constant(d, k) for k in range(d + 1)},
        prior_2color=prior,
    )
