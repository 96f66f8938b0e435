"""Classification reports: the verdict bundle attached to a Hilbert series.

The compound "cyclotomic Gorenstein" verdict is by definition the
conjunction of the cyclotomic root test and the palindromic symmetry test,
so the report computes it from the two parts rather than storing an
independent flag.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import cyc_number, gorenstein_symmetry, is_cyclotomic
from .groups import classify_pole, generated_by_quasi_bireflections, molien

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
    """Verdicts carried by the series alone; no group data involved."""
    cyc = cyc_number(f)
    return ClassificationReport(
        hilbert_series=f,
        is_cyclotomic=is_cyclotomic(f),
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
    """
    series = molien(group, assignment)
    base = classify_series(series)
    verdict, witnesses = generated_by_quasi_bireflections(
        group, assignment, gk_dim)
    poles = tuple(classify_pole(assignment[i], gk_dim).pole_order
                  for i in range(group.order))
    return ClassificationReport(
        hilbert_series=series,
        is_cyclotomic=base.is_cyclotomic,
        gorenstein_symmetric=base.gorenstein_symmetric,
        cyc_number=base.cyc_number,
        cyc_profile=base.cyc_profile,
        qb_generated=verdict,
        qb_witnesses=tuple(witnesses),
        pole_orders=poles,
    )


def report_payload(report):
    """Orderly JSON-ready dict in the ``classify`` task's key schema;
    polynomial strings are canonical."""
    payload = {
        "series": str(report.hilbert_series),
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
