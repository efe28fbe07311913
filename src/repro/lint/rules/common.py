"""Shared AST helpers for the ``repro.lint`` checkers."""

from __future__ import annotations

import ast
from typing import Dict, Optional

__all__ = ["dotted_name", "ImportMap"]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None (calls, subscripts...)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ImportMap:
    """What each local name refers to, from a module's import statements.

    ``import numpy as np`` → ``np`` resolves to ``numpy``;
    ``from time import time as now`` → ``now`` resolves to ``time.time``.
    Only top-level and nested imports are tracked — good enough for lint
    rules that need to know whether ``random`` *is* the stdlib module.
    """

    def __init__(self, tree: ast.Module):
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name != "*":
                        self.aliases[alias.asname or alias.name] = (
                            f"{node.module}.{alias.name}"
                        )

    def resolve(self, local_dotted: str) -> str:
        """Expand the leading segment through the import aliases."""
        head, _, rest = local_dotted.partition(".")
        target = self.aliases.get(head)
        if target is None:
            return local_dotted
        return f"{target}.{rest}" if rest else target
