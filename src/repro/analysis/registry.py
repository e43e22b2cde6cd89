"""The lint-rule registry, mirroring ``repro.workloads.register_workload``.

A rule is a function ``check(sources) -> Iterable[Finding]`` registered
under a stable code (``D001``, ``K002``, ...).  Third-party or test rules
register through the same decorator the built-ins use; duplicate codes
fail loudly, exactly like workload name collisions.

    @register_rule("X001", name="no-eval",
                   summary="eval() is forbidden in core code")
    def check_no_eval(sources):
        ...
        yield Finding(path, line, "X001", "eval() call")

A rule only reports: the analyzer never rewrites a file, so nothing a
rule flags can be silenced by the tool that flags it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List

from repro.analysis.reporting import Finding
from repro.analysis.walker import SourceFile

CheckFn = Callable[[List[SourceFile]], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    code: str
    name: str
    summary: str
    check: CheckFn


_RULES: Dict[str, Rule] = {}


def register_rule(code: str, *, name: str,
                  summary: str) -> Callable[[CheckFn], CheckFn]:
    """Decorator registering ``check`` under ``code``.

    Raises ValueError on a duplicate code — two rules silently shadowing
    each other is exactly the kind of bug this subsystem exists to stop.
    """

    def wrap(check: CheckFn) -> CheckFn:
        if code in _RULES:
            raise ValueError(
                f"lint rule code {code!r} is already registered "
                f"({_RULES[code].name})")
        _RULES[code] = Rule(code=code, name=name, summary=summary,
                            check=check)
        return check

    return wrap


def get_rule(code: str) -> Rule:
    try:
        return _RULES[code]
    except KeyError:
        raise KeyError(
            f"unknown lint rule {code!r}; known: "
            f"{', '.join(sorted(_RULES))}") from None


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by code."""
    return [_RULES[code] for code in sorted(_RULES)]


def rule_codes() -> List[str]:
    return sorted(_RULES)
