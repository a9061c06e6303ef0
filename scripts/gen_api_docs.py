#!/usr/bin/env python3
"""Generate docs/api.md from the public API (__all__ + first doc lines).

Run after changing any package's exports:

    python scripts/gen_api_docs.py

``tests/test_api_docs.py`` fails when docs/api.md is stale.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib

PACKAGES = [
    "repro",
    "repro._faults",
    "repro.bdd",
    "repro.bdd.check",
    "repro.bdd.governor",
    "repro.isf",
    "repro.cf",
    "repro.reduce",
    "repro.decomp",
    "repro.cascade",
    "repro.benchfns",
    "repro.experiments",
    "repro.parallel",
    "repro.parallel.fabric",
    "repro.parallel.journal",
    "repro.parallel.lease",
    "repro.parallel.worker",
    "repro.service",
    "repro.service.watchdog",
    "repro.service.workers",
    "repro.utils",
]

HEADER = """# API reference

One line per public symbol (the first sentence of its docstring).
Generated by ``scripts/gen_api_docs.py`` — do not edit by hand.
"""


def first_line(obj: object) -> str:
    doc = inspect.getdoc(obj) or ""
    line = doc.strip().splitlines()[0] if doc.strip() else ""
    return line.rstrip(".")


def kind_of(obj: object) -> str:
    if inspect.isclass(obj):
        return "class"
    if callable(obj):
        return "function"
    return "constant"


def render() -> str:
    blocks = [HEADER]
    for package_name in PACKAGES:
        module = importlib.import_module(package_name)
        names = sorted(getattr(module, "__all__", []))
        if not names:
            continue
        blocks.append(f"\n## `{package_name}`\n")
        blocks.append(first_line(module) + ".\n")
        for name in names:
            obj = getattr(module, name)
            kind = kind_of(obj)
            if kind == "constant":
                summary = f"module-level constant ({type(obj).__name__})"
            else:
                summary = first_line(obj) or "(undocumented)"
            blocks.append(f"- **`{name}`** ({kind}) — {summary}.")
        blocks.append("")
    return "\n".join(blocks) + "\n"


def main() -> None:
    out = pathlib.Path(__file__).parent.parent / "docs" / "api.md"
    out.write_text(render())
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
