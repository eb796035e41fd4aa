"""The finding type shared by every rule, the engine and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class Violation:
    """One finding at one source location.

    Attributes:
        path: file path as given to the engine (posix separators).
        line: 1-based physical line of the offending node.
        col: 0-based column offset.
        rule_id: the ``TMOxxx`` identifier of the rule that fired.
        message: human-readable description with the suggested fix.
        snippet: the stripped source line.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    snippet: str = field(default="", compare=False)

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule_id)

    def format_text(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule_id} {self.message}"

    def as_json(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }
