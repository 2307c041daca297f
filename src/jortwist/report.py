"""Structured pass/fail records for verification checks."""

from __future__ import annotations


class VerificationReport:
    """Outcome of one check, with per-grade detail.

    `grades` maps each kappa-grade up to the truncation to a boolean;
    `failure` holds the lowest-grade differing monomial when a comparison
    failed; `notes` carries informational findings (e.g. which printed sign
    a computed antipode matches).  A plain class rather than a dataclass:
    `dataclasses` imports `inspect`, which would add to every CLI start.
    """

    def __init__(self, check, params, passed, grades=None, failure=None,
                 notes=None):
        self.check = check
        self.params = params
        self.passed = passed
        self.grades = {} if grades is None else grades
        self.failure = failure
        self.notes = [] if notes is None else notes

    def to_dict(self):
        return {
            "check": self.check,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "status": "pass" if self.passed else "fail",
            "grades": {str(n): ("pass" if ok else "fail")
                       for n, ok in sorted(self.grades.items())},
            "first_failure": self.failure,
            "notes": list(self.notes),
        }


def merge_reports(check, params, reports, notes=None):
    """Combine sub-comparisons of one logical check into a single report,
    whose failure is the lowest-grade one (the first, on a tie)."""
    grades = {}
    all_notes = list(notes or [])
    for rep in reports:
        for n, ok in rep.grades.items():
            grades[n] = grades.get(n, True) and ok
        all_notes.extend(rep.notes)
    failure = min((r.failure for r in reports if r.failure),
                  key=lambda f: f["grade"], default=None)
    passed = all(r.passed for r in reports)
    return VerificationReport(check, params, passed, grades, failure, all_notes)
