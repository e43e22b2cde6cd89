"""Driver for ``repro lint``: rule selection and report rendering."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.registry import Rule, all_rules, get_rule
from repro.analysis.reporting import Finding, render_json, render_text
from repro.analysis.walker import SourceFile, load_source


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: List[Finding]
    files_checked: int
    rules_run: List[str]
    output: str

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def default_lint_paths(repo_root: Path) -> List[Path]:
    """What a bare ``repro lint`` analyzes: the whole ``repro`` package."""
    return [repo_root / "src" / "repro"]


def _collect(paths: Sequence[Path]) -> tuple:
    """(sources, syntax_findings): unparsable files become E001 findings."""
    files: List[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    seen = set()
    sources: List[SourceFile] = []
    broken: List[Finding] = []
    for f in files:
        resolved = f.resolve()
        if resolved in seen:
            continue
        seen.add(resolved)
        try:
            sources.append(load_source(f))
        except SyntaxError as exc:
            broken.append(Finding(str(f), exc.lineno or 1, "E001",
                                  f"file does not parse: {exc.msg}"))
    return sources, broken


def run_lint(paths: Sequence[Path], *, rules: Optional[Sequence[str]] = None,
             as_json: bool = False) -> LintResult:
    """Run the analyzer over ``paths`` and render a report.

    ``rules`` filters by code ("D001") or family prefix ("D"); None runs
    everything.
    """
    if rules:
        selected: List[Rule] = []
        for want in rules:
            if len(want) > 1 and want[1:].isdigit():
                selected.append(get_rule(want))
            else:
                family = [r for r in all_rules()
                          if r.code.startswith(want)]
                if not family:
                    raise KeyError(f"no lint rules in family {want!r}")
                selected.extend(family)
        # Stable order, dedupe repeats from overlapping selections.
        chosen = sorted({r.code: r for r in selected}.values(),
                        key=lambda r: r.code)
    else:
        chosen = all_rules()

    sources, findings = _collect(paths)
    for rule in chosen:
        findings.extend(rule.check(sources))

    codes = [r.code for r in chosen]
    render = render_json if as_json else render_text
    output = render(findings, files_checked=len(sources), rules_run=codes)
    return LintResult(findings=sorted(findings), files_checked=len(sources),
                      rules_run=codes, output=output)
