"""Pass/fail reporting shared by the verification suites and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CheckResult", "Report"]


@dataclass(frozen=True)
class CheckResult:
    id: str
    ok: bool
    witness: str | None = None

    def to_json(self) -> dict:
        out = {"id": self.id, "status": "pass" if self.ok else "fail"}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class Report:
    title: str
    results: list[CheckResult] = field(default_factory=list)

    def add(self, id: str, ok: bool, witness: str | None = None) -> None:
        self.results.append(CheckResult(id, ok, None if ok else witness))

    @property
    def n_pass(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def n_fail(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    @property
    def ok(self) -> bool:
        """Some check ran and none failed: a report that checked nothing
        does not pass."""
        return bool(self.results) and self.n_fail == 0

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.ok]

    def sorted(self) -> "Report":
        return Report(self.title, sorted(self.results, key=lambda r: r.id))

    def extend(self, other: "Report") -> None:
        self.results.extend(other.results)

    def to_json(self) -> dict:
        rep = self.sorted()
        return {
            "title": rep.title,
            "results": [r.to_json() for r in rep.results],
            "summary": {"pass": rep.n_pass, "fail": rep.n_fail},
        }

    def __str__(self) -> str:
        rep = self.sorted()
        lines = [f"{rep.title}: {rep.n_pass} pass, {rep.n_fail} fail"]
        for r in rep.results:
            if not r.ok:
                lines.append(f"  FAIL {r.id}" + (f"  [{r.witness}]" if r.witness else ""))
        return "\n".join(lines)
