#!/usr/bin/env python3
"""Markdown link and code-name checker for the docs CI job.

Verifies that every relative link target in the given markdown files
exists in the repository (anchors are stripped; http/https/mailto links
are skipped so the check works offline). In the top-level README.md and
DESIGN.md it also verifies that every qualified name in an inline code
span (`Type::Member`, `ns::Type`) names identifiers that exist in the
code under src/ (comments do not count), so the docs cannot keep
describing deleted code; `std::` names are skipped. Exit code 1 lists
every broken link and unknown name; 0 means everything resolves.

Usage: tools/check_md_links.py README.md DESIGN.md examples/README.md
"""

import os
import re
import sys

# Inline links [text](target) — skips images' leading ! automatically —
# and reference definitions [id]: target.
INLINE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
REFDEF = re.compile(r"^\s*\[[^\]]+\]:\s+(\S+)", re.MULTILINE)
SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME_CHECKED = {os.path.join(REPO_ROOT, f) for f in ("README.md", "DESIGN.md")}
FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
CODE_SPAN = re.compile(r"`([^`\n]+)`")
QUALIFIED = re.compile(r"[A-Za-z_]\w*(?:::[A-Za-z_]\w*)+")
IDENT = re.compile(r"[A-Za-z_]\w*")
# C++ comments (dropped, so a name that survives only in a comment counts
# as gone) and string/char literals (matched so a "//" inside one is not
# taken for a comment).
COMMENT_OR_LITERAL = re.compile(
    r"//[^\n]*|/\*.*?\*/|\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])*'",
    re.DOTALL)


def src_identifiers() -> set[str]:
    idents = set()
    for dirpath, _, files in os.walk(os.path.join(REPO_ROOT, "src")):
        for name in files:
            if name.endswith((".h", ".cc")):
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    code = COMMENT_OR_LITERAL.sub(
                        lambda m: " " if m.group(0)[0] == "/" else m.group(0),
                        f.read())
                idents.update(IDENT.findall(code))
    return idents


def check_names(path: str, text: str, idents: set[str]) -> list[str]:
    unknown = []
    for span in CODE_SPAN.findall(FENCE.sub("", text)):
        for name in QUALIFIED.findall(span):
            parts = name.split("::")
            if parts[0] != "std" and not all(p in idents for p in parts):
                unknown.append(f"{path}: `{name}` names no identifier in src/")
    return unknown


def check_file(path: str, idents: set[str]) -> list[str]:
    broken = []
    with open(path, encoding="utf-8") as f:
        text = f.read()
    if os.path.abspath(path) in NAME_CHECKED:
        broken.extend(check_names(path, text, idents))
    base = os.path.dirname(path)
    targets = INLINE.findall(text) + REFDEF.findall(text)
    for target in targets:
        if target.startswith(SKIP_SCHEMES) or target.startswith("#"):
            continue
        rel = target.split("#", 1)[0]
        if not rel:
            continue
        resolved = os.path.normpath(os.path.join(base, rel))
        if not os.path.exists(resolved):
            broken.append(f"{path}: broken link -> {target}")
    return broken


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    broken = []
    idents = src_identifiers()
    for path in sys.argv[1:]:
        if not os.path.exists(path):
            broken.append(f"{path}: file not found")
            continue
        broken.extend(check_file(path, idents))
    for line in broken:
        print(line, file=sys.stderr)
    if not broken:
        print(f"all links and code names resolve in {len(sys.argv) - 1} "
              "file(s)")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
