#!/usr/bin/env python3
"""Documentation drift checks (CI docs job; stdlib only).

1. Markdown link check: every relative link target in the repo's *.md
   files must exist on disk (anchors and external URLs are skipped).
2. Knob drift check over `Config`, `EngineConfig`, `serve::ServerConfig`
   and `tune::TunerOptions`, both directions:
   * every member of those structs named in README.md, DESIGN.md or
     docs/ARCHITECTURE.md — via ``Struct::field`` references or a row of
     the README parameter tables — must still exist in the headers
     (src/core/config.hpp, src/runtime/engine.hpp, src/serve/server.hpp,
     src/tune/tuner.hpp), so renames/removals cannot leave stale docs
     behind;
   * every field of the four structs must appear in README.md, so new
     knobs cannot ship undocumented.
3. Change-log completeness: CHANGES.md carries one `- PR <n> ·` entry per
   merged PR, numbered contiguously from 1 (newest last); when the full
   git history is available the entry count is cross-checked against the
   number of PR commits on the branch (shallow CI clones skip only the
   git cross-check, never the structural one).
4. Architecture-map completeness: every directory under src/ must be
   named (as `src/<dir>`) in docs/ARCHITECTURE.md, so new subsystems
   cannot ship without a place in the layer map.
5. Backend-table completeness: every architecture tag compiled into
   src/arch/ (a struct carrying `static constexpr ArchId kId`) must be
   listed in docs/BACKENDS.md — both the tag type and its `kName`
   spelling — so a new backend cannot ship without its row in the
   porting guide.
6. Mutex-table completeness: every mutex registered in
   tools/lint/lock_order.toml (which the `lock-order` lint rule holds in
   sync with the annotated tree) must appear, with its rank, in the
   DESIGN.md §14 concurrency-contracts table — and every table row must
   name a registered mutex — so a new mutex cannot ship undocumented and
   the documented ranks cannot drift from the enforced ones.

Exit code 0 = docs in sync; 1 = drift, with one line per finding.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = ["README.md", "DESIGN.md", "docs/ARCHITECTURE.md"]
SKIP_DIRS = {"build", "build-asan", "build-tsan", ".git"}

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# The documented knob structs: name -> (header, README table marker).
STRUCTS = {
    "Config": ("src/core/config.hpp", "`acs::Config`"),
    "EngineConfig": ("src/runtime/engine.hpp",
                     "`acs::runtime::EngineConfig`"),
    "ServerConfig": ("src/serve/server.hpp", "`acs::serve::ServerConfig`"),
    "TunerOptions": ("src/tune/tuner.hpp", "`acs::tune::TunerOptions`"),
}
REF_RE = re.compile(r"`(?:[\w:]*::)?(" + "|".join(STRUCTS) + r")::(\w+)`")
TABLE_ROW_RE = re.compile(r"^\|\s*`(\w+)`\s*\|")


def parse_struct_members(header: Path, struct_name: str) -> set[str]:
    """Member fields and methods of `struct <name> {...};`.

    Top-level statements of the body are joined across lines (a field may
    wrap its type, name or brace initializer) and stripped of template
    arguments, then named by the last identifier before the first `(` (a
    method), or before the first `=`, `{` or `;` (a field). Method bodies
    are skipped by brace counting.
    """
    text = header.read_text()
    start = text.find(f"struct {struct_name} {{")
    if start < 0:
        sys.exit(f"error: struct {struct_name} not found in {header}")
    members: set[str] = set()
    depth = 0
    statement = ""
    for line in text[start:].splitlines():
        code = line.split("//")[0].strip()
        opened = depth
        depth += code.count("{") - code.count("}")
        if opened == 0:
            continue  # the `struct <name> {` line itself
        if depth <= 0:
            break
        if opened > 1 or not code:
            continue  # inside a method body, or blank / comment-only
        statement += " " + code
        if depth == 1 and not code.endswith((";", "}")):
            continue  # the declaration continues on the next line
        decl, statement = statement.strip(), ""
        if decl.startswith(("friend", "using", "static_assert", "}")):
            continue
        while re.search(r"<[^<>]*>", decl):  # drop template arguments
            decl = re.sub(r"<[^<>]*>", "", decl)
        head = re.split(r"[=({;]", decl, maxsplit=1)[0]
        names = re.findall(r"\w+", head)
        if names:
            members.add(names[-1])
    return members


def doc_field_references(path: Path) -> list[tuple[str, str, int]]:
    """(struct, field, line) references found in one doc file."""
    refs: list[tuple[str, str, int]] = []
    current_table: str | None = None
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        for struct, field in REF_RE.findall(line):
            refs.append((struct, field, lineno))
        # README parameter tables: track which struct the table documents.
        for struct, (_, marker) in STRUCTS.items():
            if marker in line:
                current_table = struct
        m = TABLE_ROW_RE.match(line)
        if m and current_table and m.group(1) not in ("field",):
            refs.append((current_table, m.group(1), lineno))
        if current_table and line.strip() == "" and refs and \
                TABLE_ROW_RE.match(line) is None and \
                any(r[2] == lineno - 1 and r[0] == current_table
                    for r in refs):
            current_table = None  # blank line after table rows ends the table
    return refs


def check_links() -> list[str]:
    errors = []
    for md in sorted(REPO.rglob("*.md")):
        if any(part in SKIP_DIRS for part in md.relative_to(REPO).parts):
            continue
        for lineno, line in enumerate(md.read_text().splitlines(), start=1):
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                resolved = (md.parent / target.split("#")[0]).resolve()
                if not resolved.exists():
                    errors.append(
                        f"{md.relative_to(REPO)}:{lineno}: broken link "
                        f"-> {target}")
    return errors


def check_drift() -> list[str]:
    errors = []
    members = {struct: parse_struct_members(REPO / header, struct)
               for struct, (header, _) in STRUCTS.items()}
    documented: dict[str, set[str]] = {struct: set() for struct in STRUCTS}
    for rel in DOC_FILES:
        path = REPO / rel
        if not path.exists():
            errors.append(f"{rel}: required doc file missing")
            continue
        for struct, field, lineno in doc_field_references(path):
            documented[struct].add(field)
            if field not in members[struct]:
                errors.append(
                    f"{rel}:{lineno}: documents {struct}::{field}, which no "
                    f"longer exists in the header")
    # Completeness: every real field must be documented in the README tables.
    readme_refs = {(s, f) for s, f, _ in
                   doc_field_references(REPO / "README.md")}
    for struct, fields in members.items():
        for field in sorted(fields):
            if (struct, field) not in readme_refs and \
                    field not in documented[struct]:
                errors.append(
                    f"README.md: {struct}::{field} exists in the header but "
                    f"is documented nowhere")
    return errors


CHANGES_ENTRY_RE = re.compile(r"^- PR (\d+) ·")
PR_SUBJECT_RE = re.compile(r"^PR (\d+):")


def merged_pr_floor() -> int | None:
    """Highest PR number visible in git subjects, or None when unknowable.

    The branch history is the source of truth for what merged, but CI
    checkouts are often shallow (fetch-depth 1) and some PR subjects do
    not carry a `PR <n>:` prefix, so this is a lower bound used as a
    floor — never an exact count.
    """
    try:
        shallow = subprocess.run(
            ["git", "rev-parse", "--is-shallow-repository"],
            cwd=REPO, capture_output=True, text=True, check=True)
        if shallow.stdout.strip() == "true":
            return None
        log = subprocess.run(
            ["git", "log", "--format=%s"],
            cwd=REPO, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    prs = [int(m.group(1))
           for m in map(PR_SUBJECT_RE.match, log.stdout.splitlines()) if m]
    return max(prs, default=0) or None


def check_changes() -> list[str]:
    """CHANGES.md: one `- PR <n> ·` entry per merged PR, 1..N in order."""
    path = REPO / "CHANGES.md"
    if not path.exists():
        return ["CHANGES.md: required change log missing"]
    errors = []
    numbers: list[int] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if line.startswith("- ") and not CHANGES_ENTRY_RE.match(line):
            errors.append(
                f"CHANGES.md:{lineno}: entry does not follow the "
                f"'- PR <n> · <area> — ...' format")
            continue
        m = CHANGES_ENTRY_RE.match(line)
        if m:
            numbers.append(int(m.group(1)))
    if numbers != list(range(1, len(numbers) + 1)):
        errors.append(
            f"CHANGES.md: entries must be numbered contiguously from PR 1, "
            f"newest last (found {numbers})")
    floor = merged_pr_floor()
    if floor is not None and (not numbers or numbers[-1] < floor):
        errors.append(
            f"CHANGES.md: git history shows PR {floor} merged but the "
            f"newest entry is PR {numbers[-1] if numbers else 0} — add a "
            f"line for every merged PR")
    return errors


def check_architecture_dirs() -> list[str]:
    """docs/ARCHITECTURE.md must name every directory under src/."""
    arch = REPO / "docs/ARCHITECTURE.md"
    if not arch.exists():
        return ["docs/ARCHITECTURE.md: required doc file missing"]
    text = arch.read_text()
    errors = []
    for d in sorted(p for p in (REPO / "src").iterdir() if p.is_dir()):
        if f"src/{d.name}" not in text:
            errors.append(
                f"docs/ARCHITECTURE.md: src/{d.name} exists but is absent "
                f"from the architecture map")
    return errors


ARCH_TAG_RE = re.compile(
    r"struct\s+(\w+)\s*\{[^}]*?static\s+constexpr\s+ArchId\s+kId", re.S)
ARCH_NAME_RE = re.compile(
    r"struct\s+(\w+)\s*\{[^}]*?kName\s*=\s*\"([^\"]+)\"", re.S)


def check_backends() -> list[str]:
    """docs/BACKENDS.md must list every arch tag compiled into src/arch/."""
    backends = REPO / "docs/BACKENDS.md"
    if not backends.exists():
        return ["docs/BACKENDS.md: required doc file missing"]
    text = backends.read_text()
    errors = []
    tags: dict[str, str | None] = {}
    for header in sorted((REPO / "src/arch").glob("*.hpp")):
        source = header.read_text()
        names = dict(ARCH_NAME_RE.findall(source))
        for tag in ARCH_TAG_RE.findall(source):
            tags[tag] = names.get(tag)
    if not tags:
        return ["src/arch: no architecture tags found (ArchId kId markers)"]
    for tag in sorted(tags):
        if tag not in text:
            errors.append(
                f"docs/BACKENDS.md: arch tag {tag} exists under src/arch/ "
                f"but is absent from the backend table")
        kname = tags[tag]
        if kname and kname not in text:
            errors.append(
                f"docs/BACKENDS.md: backend name \"{kname}\" ({tag}) is "
                f"absent from the backend table")
    return errors


MUTEX_ROW_RE = re.compile(r"^\|\s*`([\w:]+::\w+)`\s*\|\s*(\d+)\s*\|")
TOML_RANK_RE = re.compile(r'^"([\w:]+)"\s*=\s*(\d+)\s*$')


def check_mutex_table() -> list[str]:
    """DESIGN.md §14 mutex table <-> tools/lint/lock_order.toml ranks."""
    design = REPO / "DESIGN.md"
    toml_path = REPO / "tools/lint/lock_order.toml"
    if not toml_path.exists():
        return ["tools/lint/lock_order.toml: lock-order registry missing"]
    ranks: dict[str, int] = {}
    in_ranks = False
    for line in toml_path.read_text().splitlines():
        stripped = line.strip()
        if stripped.startswith("["):
            in_ranks = stripped == "[ranks]"
            continue
        m = TOML_RANK_RE.match(stripped)
        if in_ranks and m:
            ranks[m.group(1)] = int(m.group(2))
    if not ranks:
        return ["tools/lint/lock_order.toml: no entries under [ranks]"]
    text = design.read_text()
    section = re.split(r"^## 14\..*$", text, maxsplit=1, flags=re.M)
    if len(section) < 2:
        return ["DESIGN.md: §14 (concurrency contracts) is missing"]
    rows: dict[str, int] = {}
    errors = []
    for line in section[1].splitlines():
        m = MUTEX_ROW_RE.match(line.strip())
        if m:
            rows[m.group(1)] = int(m.group(2))
    for mutex, rank in sorted(ranks.items()):
        if mutex not in rows:
            errors.append(
                f"DESIGN.md §14: mutex `{mutex}` is registered in "
                f"lock_order.toml but has no row in the mutex table")
        elif rows[mutex] != rank:
            errors.append(
                f"DESIGN.md §14: `{mutex}` documented with rank "
                f"{rows[mutex]} but lock_order.toml enforces {rank}")
    for mutex in sorted(rows):
        if mutex not in ranks:
            errors.append(
                f"DESIGN.md §14: table row `{mutex}` names a mutex that is "
                f"not registered in lock_order.toml")
    return errors


def main() -> int:
    errors = (check_links() + check_drift() + check_changes()
              + check_architecture_dirs() + check_backends()
              + check_mutex_table())
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print(f"check_docs: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print("check_docs: links, the Config/EngineConfig/ServerConfig/"
          "TunerOptions docs, CHANGES.md, the architecture map, the backend "
          "table and the mutex table are in sync")
    return 0


if __name__ == "__main__":
    sys.exit(main())
