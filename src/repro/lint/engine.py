"""Rule-registry engine for ``repro.lint`` — parse, check, suppress, report.

The engine owns everything rule-agnostic: walking the requested paths,
parsing every ``.py`` file once with :mod:`ast`, computing each file's
*logical path* (its location inside the ``repro`` package, which is what
rules scope on), parsing suppression pragmas, running every registered
:class:`Rule`, and filtering findings a valid pragma covers.

Suppression pragma grammar::

    # repro: allow(RULE-ID[, RULE-ID...]) -- reason text

The reason is **mandatory**: a pragma without one (or naming a rule id
the engine does not know) does not suppress anything and instead raises
its own ``PRAGMA-001`` finding, so an unexplained exemption can never
land silently.  A pragma suppresses matching findings on its own line;
written on a comment-only line it covers the next line instead, for
statements too long to share a line with their justification.

Rules are pure functions ``(SourceFile, LintContext) -> findings``: the
engine hands them one parsed file plus a context holding *every* parsed
file, so cross-file rules (``EXPORT-001`` resolving re-exports against
the source module) need no IO of their own.  Nothing here ever imports
the code under analysis — the whole pass is static.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Finding",
    "Pragma",
    "SourceFile",
    "LintContext",
    "Rule",
    "LintReport",
    "LintUsageError",
    "PRAGMA_RULE_ID",
    "parse_pragmas",
    "make_source_file",
    "collect_files",
    "run_lint",
    "lint_text",
]

#: Engine-level rule id for malformed suppression pragmas (reason missing
#: or unknown rule id).  Not a registered checker: the engine itself
#: emits these, so they can never be switched off by rule selection.
PRAGMA_RULE_ID = "PRAGMA-001"

#: Only well-formed rule-id lists parse as pragmas at all — prose that
#: *describes* the grammar (``allow(RULE-ID)`` in docstrings) does not.
_PRAGMA_RE = re.compile(
    r"#\s*repro:\s*allow\(\s*(?P<rules>[A-Z]+-\d{3}(?:\s*,\s*[A-Z]+-\d{3})*)\s*\)"
    r"(?:\s*--\s*(?P<reason>\S.*?))?\s*$"
)


class LintUsageError(Exception):
    """Bad invocation (missing path, unknown rule id) — CLI exit code 2."""


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str  #: display path (as scanned), posix separators
    line: int
    rule: str
    message: str
    hint: str = ""

    def format(self) -> str:
        text = f"{self.path}:{self.line}: [{self.rule}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass(frozen=True)
class Pragma:
    """One parsed ``# repro: allow(...)`` comment."""

    line: int
    rules: Tuple[str, ...]
    reason: str  #: empty string means the mandatory reason is missing
    own_line: bool  #: pragma is the whole line → it covers the *next* line

    def covers(self, line: int) -> bool:
        return line == (self.line + 1 if self.own_line else self.line)


@dataclass
class SourceFile:
    """One parsed source file plus the metadata rules scope on."""

    path: Path  #: real filesystem path
    display: str  #: path as reported in findings (posix)
    rel: str  #: logical path inside the ``repro`` package, e.g. ``serving/catalog.py``
    text: str
    tree: ast.Module
    pragmas: List[Pragma] = field(default_factory=list)

    @property
    def module(self) -> str:
        """Dotted module name relative to the package root (``""`` = root)."""
        rel = self.rel
        if rel.endswith("/__init__.py"):
            rel = rel[: -len("/__init__.py")]
        elif rel == "__init__.py":
            return ""
        elif rel.endswith(".py"):
            rel = rel[: -len(".py")]
        return rel.replace("/", ".")

    @property
    def is_package_init(self) -> bool:
        return self.rel == "__init__.py" or self.rel.endswith("/__init__.py")

    def in_packages(self, *prefixes: str) -> bool:
        """True when the file lives under any of the given top packages."""
        return any(
            self.rel == p or self.rel.startswith(p.rstrip("/") + "/") for p in prefixes
        )

    def finding(self, node_or_line, rule: "Rule", message: str, hint: Optional[str] = None) -> Finding:
        line = node_or_line if isinstance(node_or_line, int) else node_or_line.lineno
        return Finding(
            path=self.display,
            line=line,
            rule=rule.id,
            message=message,
            hint=rule.hint if hint is None else hint,
        )


@dataclass(frozen=True)
class Rule:
    """A registered checker: identity, docs, and the check callable."""

    id: str
    title: str
    hint: str
    check: Callable[["SourceFile", "LintContext"], Iterable[Finding]]
    #: one-line provenance — the shipped bug this rule descends from
    rationale: str = ""


class LintContext:
    """Everything a rule may need beyond its own file."""

    def __init__(self, files: Sequence[SourceFile]):
        self.files = list(files)
        self._by_module: Dict[str, SourceFile] = {f.module: f for f in self.files}

    def module_file(self, module: str) -> Optional[SourceFile]:
        return self._by_module.get(module)

    def has_module(self, module: str) -> bool:
        return module in self._by_module


@dataclass
class LintReport:
    """Outcome of one engine run."""

    findings: List[Finding]
    files_scanned: int
    suppressed: int
    rules_run: List[str]

    @property
    def clean(self) -> bool:
        return not self.findings


def top_level_bindings(tree: ast.Module) -> Set[str]:
    """Names bound at module top level (defs, classes, imports, assigns)."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    names.add(alias.asname or alias.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(_target_names(target))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.If, ast.Try)):
            # TYPE_CHECKING guards and import fallbacks still bind names.
            for sub in ast.walk(node):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names.add(sub.name)
                elif isinstance(sub, ast.Import):
                    for alias in sub.names:
                        names.add((alias.asname or alias.name).split(".")[0])
                elif isinstance(sub, ast.ImportFrom):
                    for alias in sub.names:
                        if alias.name != "*":
                            names.add(alias.asname or alias.name)
                elif isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        names.update(_target_names(target))
    return names


def _target_names(target: ast.AST) -> Set[str]:
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        names: Set[str] = set()
        for element in target.elts:
            names.update(_target_names(element))
        return names
    return set()


def parse_pragmas(text: str) -> List[Pragma]:
    """Extract every ``# repro: allow(...)`` pragma with its coverage line."""
    pragmas: List[Pragma] = []
    for number, line in enumerate(text.splitlines(), start=1):
        match = _PRAGMA_RE.search(line)
        if match is None:
            continue
        rules = tuple(
            part.strip() for part in match.group("rules").split(",") if part.strip()
        )
        reason = (match.group("reason") or "").strip()
        own_line = line.strip().startswith("#")
        pragmas.append(Pragma(line=number, rules=rules, reason=reason, own_line=own_line))
    return pragmas


def logical_rel(path: Path) -> str:
    """Path inside the ``repro`` package (rules scope on this).

    ``src/repro/serving/catalog.py`` → ``serving/catalog.py``.  Files not
    under a ``repro`` directory keep their path relative to the deepest
    scanned root — fixture trees rely on this to *simulate* package
    placement (``fixtures/bad/serving/x.py`` scans as ``serving/x.py``
    when the fixture root is the scan root).
    """
    parts = path.as_posix().split("/")
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        rel = "/".join(parts[anchor + 1 :])
        if rel:
            return rel
    return path.name


def make_source_file(
    path: Path, display: Optional[str] = None, rel: Optional[str] = None
) -> SourceFile:
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    return SourceFile(
        path=path,
        display=display if display is not None else path.as_posix(),
        rel=rel if rel is not None else logical_rel(path),
        text=text,
        tree=tree,
        pragmas=parse_pragmas(text),
    )


def collect_files(paths: Sequence[Path], root: Optional[Path] = None) -> List[SourceFile]:
    """Parse every ``.py`` under ``paths`` (files or directories).

    When ``root`` is given, logical paths are computed relative to it
    instead of being anchored on a ``repro`` path component — this is how
    fixture trees masquerade as package code.  Without ``root``, scanning
    a directory that has no ``repro`` component anchors logical paths at
    that directory, so ``python -m repro.lint some/tree`` scopes rules the
    same way an explicit root would.
    """
    files: List[SourceFile] = []
    for given in paths:
        if not given.exists():
            raise LintUsageError(f"path does not exist: {given}")
        members = [given] if given.is_file() else sorted(given.rglob("*.py"))
        for member in members:
            if member.suffix != ".py":
                continue
            if root is not None:
                rel = member.relative_to(root).as_posix()
            elif "repro" not in member.as_posix().split("/") and given.is_dir():
                rel = member.relative_to(given).as_posix()
            else:
                rel = logical_rel(member)
            files.append(make_source_file(member, rel=rel))
    return files


def _pragma_findings(source: SourceFile, known_rules: Set[str]) -> List[Finding]:
    findings: List[Finding] = []
    for pragma in source.pragmas:
        problems = []
        for rule_id in pragma.rules:
            if rule_id not in known_rules:
                problems.append(f"names unknown rule id {rule_id!r}")
        if not pragma.reason:
            problems.append("is missing the mandatory '-- reason' justification")
        for problem in problems:
            findings.append(
                Finding(
                    path=source.display,
                    line=pragma.line,
                    rule=PRAGMA_RULE_ID,
                    message=f"suppression pragma {problem}",
                    hint="write '# repro: allow(RULE-ID) -- why this exemption is correct'",
                )
            )
    return findings


def _pragma_valid(pragma: Pragma, known_rules: Set[str]) -> bool:
    return bool(pragma.reason) and bool(pragma.rules) and all(
        r in known_rules for r in pragma.rules
    )


def run_lint(
    rules: Sequence[Rule],
    paths: Sequence[Path],
    root: Optional[Path] = None,
    select: Optional[Sequence[str]] = None,
) -> LintReport:
    """Run ``rules`` (optionally narrowed to ``select`` ids) over ``paths``."""
    known = {rule.id for rule in rules}
    if select is not None:
        unknown = sorted(set(select) - known)
        if unknown:
            raise LintUsageError(
                f"unknown rule id(s): {', '.join(unknown)}; known: {', '.join(sorted(known))}"
            )
        rules = [rule for rule in rules if rule.id in set(select)]
    files = collect_files(paths, root=root)
    context = LintContext(files)
    findings: List[Finding] = []
    suppressed = 0
    for source in files:
        raw: List[Finding] = []
        for rule in rules:
            raw.extend(rule.check(source, context))
        # Invalid pragmas never suppress; every valid one may.
        valid = [p for p in source.pragmas if _pragma_valid(p, known)]
        for finding in raw:
            if any(
                finding.rule in p.rules and p.covers(finding.line) for p in valid
            ):
                suppressed += 1
            else:
                findings.append(finding)
        findings.extend(_pragma_findings(source, known))
    findings.sort()
    return LintReport(
        findings=findings,
        files_scanned=len(files),
        suppressed=suppressed,
        rules_run=[rule.id for rule in rules],
    )


def lint_text(
    rules: Sequence[Rule], text: str, rel: str, display: str = "<memory>"
) -> List[Finding]:
    """Check an in-memory snippet as if it lived at logical path ``rel``.

    Test helper: fixture tests and rule unit tests use this to place a
    snippet anywhere in the package without touching the filesystem.
    Pragma semantics match :func:`run_lint` exactly.
    """
    tree = ast.parse(text, filename=display)
    source = SourceFile(
        path=Path(display),
        display=display,
        rel=rel,
        text=text,
        tree=tree,
        pragmas=parse_pragmas(text),
    )
    context = LintContext([source])
    known = {rule.id for rule in rules}
    valid = [p for p in source.pragmas if _pragma_valid(p, known)]
    findings = []
    for rule in rules:
        for finding in rule.check(source, context):
            if not any(
                finding.rule in p.rules and p.covers(finding.line) for p in valid
            ):
                findings.append(finding)
    findings.extend(_pragma_findings(source, known))
    return sorted(findings)
