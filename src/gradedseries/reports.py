"""Classification reports: the verdict bundle attached to a Hilbert series.

The compound "cyclotomic Gorenstein" verdict is by definition the
conjunction of the cyclotomic root test and the palindromic symmetry test,
so the report computes it from the two parts rather than storing an
independent flag.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .cyclotomic import (cyc_number, factor_series, gorenstein_symmetry,
                         is_cyclotomic)
from .groups import (generated_by_quasi_bireflections, molien,
                     pole_classifications)

NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class ClassificationReport:
    hilbert_series: object
    is_cyclotomic: bool
    gorenstein_symmetric: bool
    cyc_number: int | None
    cyc_profile: dict | None
    qb_generated: object        # bool, or "not-applicable" for a bare series
    qb_witnesses: tuple
    pole_orders: tuple

    @property
    def cyclotomic_gorenstein(self):
        return self.is_cyclotomic and self.gorenstein_symmetric


def classify_series(f):
    """Verdicts carried by the series alone; no group data involved.

    num and den are factored into cyclotomic parts once, and both the
    cyclotomic verdict and the cyc number read those two factorizations.
    """
    factors = factor_series(f)
    cyc = cyc_number(f, factors)
    return ClassificationReport(
        hilbert_series=f,
        is_cyclotomic=is_cyclotomic(f, factors),
        gorenstein_symmetric=gorenstein_symmetry(f).symmetric,
        cyc_number=cyc[0] if cyc else None,
        cyc_profile=dict(cyc[1].factors) if cyc else None,
        qb_generated=NOT_APPLICABLE,
        qb_witnesses=(),
        pole_orders=(),
    )


def classify_group(group, assignment, gk_dim):
    """Verdicts for a fixed ring: Molien series classification plus the
    quasi-bireflection generation test.

    The Molien series comes from ``molien``, so an assignment whose sum was
    already taken (a ``molien`` task on the same group) is not summed again.
    Each distinct trace value gets one ``classify_pole``
    (``pole_classifications``), and both the generation test and the pole
    orders read those verdicts.
    """
    base = classify_series(molien(group, assignment))
    poles = pole_classifications(assignment, gk_dim)
    verdict, witnesses = generated_by_quasi_bireflections(group, poles)
    return replace(base, qb_generated=verdict, qb_witnesses=tuple(witnesses),
                   pole_orders=tuple(p.pole_order for p in poles))


def report_payload(report):
    """Orderly dict in the ``classify`` task's key schema; the series stays
    a RationalFunction, whose text is canonical, until it is printed."""
    payload = {
        "series": report.hilbert_series,
        "cyclotomic": report.is_cyclotomic,
        "gorenstein": report.gorenstein_symmetric,
        "cyclotomic_gorenstein": report.cyclotomic_gorenstein,
        "cyc": report.cyc_number,
        "cyc_profile": {str(a): e for a, e in sorted(report.cyc_profile.items())}
        if report.cyc_profile is not None else None,
        "qb_generated": report.qb_generated,
    }
    if report.qb_generated != NOT_APPLICABLE:
        payload["qb_witnesses"] = list(report.qb_witnesses)
        payload["pole_orders"] = list(report.pole_orders)
    return payload


__all__ = [
    "NOT_APPLICABLE",
    "ClassificationReport",
    "classify_group",
    "classify_series",
    "report_payload",
]
