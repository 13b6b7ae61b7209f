"""Pass/fail reports for the verification suites.

Checkers never raise on a mathematical mismatch; they collect one failure
entry per violated identity (with enough context to reproduce it) and the
caller decides what to do.  Genuine usage errors still raise.
"""

from __future__ import annotations

__all__ = ["CheckReport"]


class CheckReport:
    """Outcome of one verification suite: equal when name, count, failures
    and notes are; unhashable (it defines ``__eq__`` alone), as it is
    mutable."""

    __slots__ = ("name", "checked", "failures", "notes")

    def __init__(
        self,
        name: str,
        checked: int = 0,
        failures: list[str] | None = None,
        notes: list[str] | None = None,
    ):
        self.name = name
        self.checked = checked
        self.failures = [] if failures is None else failures
        self.notes = [] if notes is None else notes

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name, self.checked, self.failures, self.notes) == (
                other.name, other.checked, other.failures, other.notes
            )
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(name={self.name!r}, checked={self.checked!r}, "
            f"failures={self.failures!r}, notes={self.notes!r})"
        )

    @property
    def ok(self) -> bool:
        return not self.failures

    def count(self, amount: int = 1) -> None:
        self.checked += amount

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def note(self, message: str) -> None:
        self.notes.append(message)

    def merge(self, other: "CheckReport") -> None:
        self.checked += other.checked
        self.failures.extend(f"{other.name}: {msg}" for msg in other.failures)
        self.notes.extend(f"{other.name}: {msg}" for msg in other.notes)

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        text = f"[{status}] {self.name}: {self.checked} checks"
        if self.failures:
            text += f", {len(self.failures)} failures"
        return text

    def render(self) -> str:
        lines = [self.summary()]
        lines.extend(f"  failure: {msg}" for msg in self.failures)
        lines.extend(f"  note: {msg}" for msg in self.notes)
        return "\n".join(lines)
