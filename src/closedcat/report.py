"""Check reports: itemized pass/fail results with stable ordering.

Every failed item carries a locus naming the objects/morphisms that
instantiate the violated equation, so a failure is traceable to a single
concrete counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
SKIP = "skipped"


@dataclass(frozen=True)
class ReportItem:
    check: str  # stable identifier, e.g. "cc-axioms/CC3"
    anchor: str  # axiom or law name, e.g. "CC3"
    status: str
    locus: str = ""

    def line(self) -> str:
        out = f"[{self.status.upper():4s}] {self.check}"
        if self.anchor and self.anchor not in self.check:
            out += f" ({self.anchor})"
        if self.locus:
            out += f" @ {self.locus}"
        return out


@dataclass
class Report:
    title: str = ""
    items: list[ReportItem] = field(default_factory=list)

    def law(self, check: str, anchor: str, loci) -> list[str]:
        """Itemize one law from its failing loci, consumed in order: one
        FAIL per locus, or one PASS when there are none.  Returns the loci.
        If ``loci`` raises partway, nothing is added."""
        loci = list(loci)
        if loci:
            self.items.extend(ReportItem(check, anchor, FAIL, x) for x in loci)
        else:
            self.items.append(ReportItem(check, anchor, PASS))
        return loci

    def extend(self, other: "Report", prefix: str = "") -> None:
        for it in other.items:
            check = f"{prefix}{it.check}" if prefix else it.check
            self.items.append(ReportItem(check, it.anchor, it.status, it.locus))

    @property
    def ok(self) -> bool:
        return all(it.status != FAIL for it in self.items)

    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, SKIP: 0}
        for it in self.items:
            out[it.status] += 1
        return out

    def failures(self) -> list[ReportItem]:
        return [it for it in self.items if it.status == FAIL]

    def render_text(self) -> str:
        lines = []
        if self.title:
            lines.append(f"== {self.title} ==")
        lines.extend(it.line() for it in self.items)
        c = self.counts()
        lines.append(
            f"-- {c[PASS]} passed, {c[FAIL]} failed, {c[SKIP]} skipped --"
        )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "items": [
                {
                    "check": it.check,
                    "anchor": it.anchor,
                    "status": it.status,
                    "locus": it.locus,
                }
                for it in self.items
            ],
            "summary": self.counts(),
        }
