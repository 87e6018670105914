#!/usr/bin/env python3
"""p2pex-lint: determinism and capacity static analysis for the p2pex tree.

Every headline number this repo reproduces is only trustworthy because runs
replay bit-exactly across machines, build types and standard-library
implementations. The runtime machinery (audit builds, pinned output
digests) catches a nondeterminism bug only after a scenario trips it;
this tool enforces the rules *before* the code runs.

Rules
-----
D1  unordered-iteration
    No iteration over std::unordered_{map,set,multimap,multiset} in
    result-affecting code: bucket order differs between libc++ and
    libstdc++ (and across grow thresholds), so any loop whose visit order
    can leak into results must use a sorted/flat container or iterate a
    deterministic key order. Sites whose outcome provably cannot depend
    on order (pure sums, erase-all, sort-after-collect) carry the waiver
    `// p2pex-lint: order-insensitive`.

D2  nondeterminism-source
    No std::rand/srand/random_device (waiver `seed-source-ok`), no
    time()/clock()/chrono *_clock::now() feeding results (telemetry-only
    uses carry `// p2pex-lint: wall-clock-ok`), and no pointer-keyed
    associative containers or std::hash<T*> (address order varies run to
    run; waiver `pointer-key-ok` for containers never iterated).

D3  graph-touch
    In src/core/*.cpp every function that mutates peer-visible state
    (online/sharing flips, storage and IRQ mutations, lookup index edits,
    request-state transitions) must call touch_graph(...) in the same
    function body, or carry `// p2pex-lint: no-graph-effect` explaining
    why the snapshot cannot go stale. This closes the class of
    stale-snapshot bugs that P2PEX_SNAPSHOT_AUDIT can only catch at
    runtime.

D4  unchecked-narrowing
    No raw static_cast<std::uint32_t>(...) (the PR 6 overflow family:
    arena offsets and 32-bit ids silently wrap at 2^32). Use
    p2pex::narrow_u32() (checked in Debug/audit builds, free in Release)
    or StrongId::from_index() (always-on guard at true growth
    boundaries); sites with a local always-on guard carry
    `// p2pex-lint: checked-narrowing`.

Waivers
-------
A waiver comment applies to its own line, or — when the comment is a
standalone line — to the next code line. For D3 the waiver may sit
anywhere inside the offending function body. Syntax:

    // p2pex-lint: <tag>[, <tag>...] [free-text rationale]

Engines
-------
  lexical  Pure-Python tokenizing engine, no dependencies (default).
  clang    libclang (python3-clang) for type-accurate D1; falls back to
           the lexical engine per-file on any failure. `--engine auto`
           picks clang when importable.

Self-test
---------
`--selftest` runs the tool over tools/lint/tests/corpus and checks the
findings against `// expect-violation: <rule>` directives embedded in the
corpus files (one per seeded violation, on the offending line). Wired
into CTest as lint.selftest so a rule regression fails tier-1.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

RULES = {
    "D1": "unordered-iteration",
    "D2": "nondeterminism-source",
    "D3": "graph-touch",
    "D4": "unchecked-narrowing",
}

# Waiver tag -> rule it silences.
WAIVER_TAGS = {
    "order-insensitive": "D1",
    "seed-source-ok": "D2",
    "wall-clock-ok": "D2",
    "pointer-key-ok": "D2",
    "no-graph-effect": "D3",
    "checked-narrowing": "D4",
}

UNORDERED_RE = re.compile(r"\bunordered_(?:multi)?(?:map|set)\s*<")
WAIVER_COMMENT_RE = re.compile(r"p2pex-lint:\s*([A-Za-z0-9_,\- ]+)")
EXPECT_RE = re.compile(r"expect-violation:\s*(D[1-4])")

# D3: mutations of peer-visible state in src/core/. Curated from the
# audited touch_graph sites of PR 2/4 (see System's dirty-tracking
# contract in core/system.h): anything that changes who is online or
# sharing, what a peer stores or queues, the lookup index, or a request's
# exchange state changes some root's eligible edge set.
MUTATION_PATTERNS = [
    re.compile(r"\.online\s*=(?!=)"),
    re.compile(r"\.shares\s*=(?!=)"),
    re.compile(r"\.storage\.(?:add|remove|evict)\s*\("),
    re.compile(r"\.irq\.(?:add|remove)\s*\("),
    re.compile(r"\blookup_\.(?:add_owner|remove_owner|remove_peer)\s*\("),
    re.compile(r"(?:\.|->)state\s*=\s*RequestState::"),
    re.compile(r"\.pending\.(?:push_back|erase|clear|pop_back)\s*\("),
]

D2_SEED_RE = re.compile(r"\bstd::rand\b|(?<![\w:])s?rand\s*\(|\brandom_device\b")
D2_CLOCK_RE = re.compile(
    r"_clock::now\s*\(|(?<![\w:])time\s*\(\s*(?:0|NULL|nullptr)?\s*\)|"
    r"(?<![\w:])clock\s*\(\s*\)")
D2_HASH_PTR_RE = re.compile(r"\bhash\s*<[^<>]*\*\s*>")
D4_CAST_RE = re.compile(r"static_cast\s*<\s*(?:std::)?uint32_t\s*>")

ASSOC_DECL_RE = re.compile(r"\b(?:unordered_)?(?:multi)?(?:map|set)\s*<")

RANGE_FOR_RE = re.compile(r"\bfor\s*\(")
ITER_ASSIGN_RE = re.compile(
    r"\b(\w+)\s*=\s*([A-Za-z_][\w]*(?:\s*(?:\.|->)\s*[A-Za-z_][\w]*)*)\s*"
    r"(?:\.|->)\s*(?:find|begin|cbegin|lower_bound|equal_range)\s*\(")
FUNC_HEAD_RE = re.compile(
    r"(?:^|[;}{])\s*(?:template\s*<[^<>]*>\s*)?"
    r"(?:[\w:<>,&*\[\]~ \t]+?)\b([A-Za-z_]\w*(?:::[A-Za-z_~]\w*)*)\s*"
    r"\(", re.S)
# Control-flow heads FUNC_HEAD_RE must not treat as function definitions.
NOT_A_FUNCTION = {"if", "for", "while", "switch", "catch", "return",
                  "sizeof", "alignof", "decltype", "do", "else"}


@dataclass
class Violation:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}/{RULES[self.rule]}] {self.message}"


@dataclass
class SourceFile:
    path: str
    raw: str
    clean: str = ""                      # comments/strings blanked, same geometry
    waivers: dict = field(default_factory=dict)   # line -> set of tags
    expects: list = field(default_factory=list)   # (line, rule) selftest directives
    lines: list = field(default_factory=list)     # clean, split


def strip_comments_and_strings(src: SourceFile) -> None:
    """Blanks comments, string and char literals in-place (preserving line
    structure), collecting waiver and expect directives from comments."""
    raw = src.raw
    out = []
    i, n = 0, len(raw)
    line = 1
    standalone = True  # no code seen yet on the current line

    def note_comment(text: str, at_line: int, alone: bool) -> None:
        m = WAIVER_COMMENT_RE.search(text)
        if m:
            tags = {t.strip() for t in re.split(r"[,\s]+", m.group(1)) if t.strip()}
            tags &= set(WAIVER_TAGS)
            target = at_line if not alone else -at_line  # negative: bind to next code line
            src.waivers.setdefault(target, set()).update(tags)
        e = EXPECT_RE.search(text)
        if e:
            src.expects.append((at_line, e.group(1)))

    while i < n:
        c = raw[i]
        if c == "/" and i + 1 < n and raw[i + 1] == "/":
            j = raw.find("\n", i)
            if j == -1:
                j = n
            note_comment(raw[i:j], line, standalone)
            out.append(" " * (j - i))
            i = j
            continue
        if c == "/" and i + 1 < n and raw[i + 1] == "*":
            j = raw.find("*/", i + 2)
            j = n if j == -1 else j + 2
            note_comment(raw[i:j], line, standalone)
            for ch in raw[i:j]:
                out.append("\n" if ch == "\n" else " ")
                if ch == "\n":
                    line += 1
                    standalone = True
            i = j
            continue
        if c == '"' or c == "'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and raw[i] != quote:
                if raw[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                    continue
                out.append("\n" if raw[i] == "\n" else " ")
                if raw[i] == "\n":
                    line += 1
                i += 1
            if i < n:
                out.append(quote)
                i += 1
            standalone = False
            continue
        out.append(c)
        if c == "\n":
            line += 1
            standalone = True
        elif not c.isspace():
            standalone = False
        i += 1
    src.clean = "".join(out)
    src.lines = src.clean.split("\n")

    # Re-bind standalone waivers (negative keys) to the next code line.
    for key in [k for k in src.waivers if k < 0]:
        tags = src.waivers.pop(key)
        ln = -key
        for nxt in range(ln + 1, len(src.lines) + 1):
            if src.lines[nxt - 1].strip():
                src.waivers.setdefault(nxt, set()).update(tags)
                break


def line_of(src: SourceFile, pos: int) -> int:
    return src.clean.count("\n", 0, pos) + 1


def waived(src: SourceFile, line: int, tag: str) -> bool:
    return tag in src.waivers.get(line, set())


def scan_angles(text: str, open_pos: int) -> int:
    """Returns the index just past the `>` matching the `<` at open_pos,
    or -1. Treats >> as two closers; ignores comparison heuristically
    (fine for type contexts)."""
    depth = 0
    i = open_pos
    n = len(text)
    while i < n:
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{}":
            return -1
        i += 1
    return -1


def split_top_level(args: str) -> list:
    parts, depth, cur = [], 0, []
    for c in args:
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return parts


@dataclass
class DeclInfo:
    """A name declared as an associative container somewhere relevant."""
    unordered: bool = False
    mapped_unordered: bool = False   # map whose value type is itself unordered
    pointer_key: bool = False
    line: int = 0


def collect_assoc_decls(src: SourceFile) -> dict:
    """name -> DeclInfo for every associative-container variable/member
    declared in this file."""
    decls: dict = {}
    for m in ASSOC_DECL_RE.finditer(src.clean):
        open_pos = src.clean.index("<", m.end() - 1)
        close = scan_angles(src.clean, open_pos)
        if close == -1:
            continue
        head = m.group(0)
        args = split_top_level(src.clean[open_pos + 1:close - 1])
        is_unordered = "unordered_" in head
        is_map = "map" in head
        info = DeclInfo(line=line_of(src, m.start()))
        info.unordered = is_unordered
        if args:
            key = args[0].strip()
            info.pointer_key = key.endswith("*")
        if is_map and len(args) >= 2 and UNORDERED_RE.search(args[1]):
            info.mapped_unordered = True
        # Declarator name: identifier following the closing '>' (skipping
        # cv/ref tokens), rejected when it opens a parameter list (a
        # function returning the container, not a variable).
        tail = src.clean[close:close + 160]
        dm = re.match(r"[\s&]*(?:const\s+)?[&]*\s*([A-Za-z_]\w*)\s*([;={,)\[]|$)", tail)
        if not dm:
            continue
        name = dm.group(1)
        if name in ("const", "final", "override"):
            continue
        prev = decls.get(name)
        if prev is None:
            decls[name] = info
        else:
            prev.unordered = prev.unordered or info.unordered
            prev.mapped_unordered = prev.mapped_unordered or info.mapped_unordered
            prev.pointer_key = prev.pointer_key or info.pointer_key
    return decls


def base_identifier(expr: str) -> str:
    """Trailing identifier of `expr` (`a.b->c_` -> `c_`), or ''."""
    expr = expr.strip()
    m = re.search(r"([A-Za-z_]\w*)\s*$", expr)
    return m.group(1) if m else ""


def find_balanced(text: str, open_pos: int, open_c: str, close_c: str) -> int:
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == open_c:
            depth += 1
        elif text[i] == close_c:
            depth -= 1
            if depth == 0:
                return i
    return -1


def top_level_colon(text: str) -> int:
    """Position of a range-for `:` (not `::`) at paren/angle depth 0."""
    depth = 0
    i = 0
    while i < len(text):
        c = text[i]
        if c in "(<[":
            depth += 1
        elif c in ")>]":
            depth -= 1
        elif c == ":" and depth == 0:
            if i + 1 < len(text) and text[i + 1] == ":":
                i += 2
                continue
            if i > 0 and text[i - 1] == ":":
                i += 1
                continue
            return i
        i += 1
    return -1


class LexicalEngine:
    """Dependency-free engine: regex + hand tokenization over blanked text."""

    def __init__(self, project_root: str):
        self.root = project_root
        self._header_decls_cache: dict = {}

    # --- helpers -----------------------------------------------------

    def header_decls(self, header_path: str) -> dict:
        cached = self._header_decls_cache.get(header_path)
        if cached is not None:
            return cached
        try:
            with open(header_path, encoding="utf-8") as f:
                hsrc = SourceFile(header_path, f.read())
        except OSError:
            self._header_decls_cache[header_path] = {}
            return {}
        strip_comments_and_strings(hsrc)
        decls = collect_assoc_decls(hsrc)
        self._header_decls_cache[header_path] = decls
        return decls

    def visible_decls(self, src: SourceFile) -> dict:
        """Container decls from the file itself plus its directly-included
        project headers (resolved against src/)."""
        decls = dict(collect_assoc_decls(src))
        for m in re.finditer(r'#include\s+"([^"]+)"', src.raw):
            rel = m.group(1)
            for base in (os.path.join(self.root, "src"),
                         os.path.dirname(src.path)):
                cand = os.path.join(base, rel)
                if os.path.isfile(cand):
                    for name, info in self.header_decls(cand).items():
                        prev = decls.get(name)
                        if prev is None:
                            decls[name] = info
                        else:
                            prev.unordered = prev.unordered or info.unordered
                            prev.mapped_unordered = (prev.mapped_unordered
                                                     or info.mapped_unordered)
                    break
        return decls

    # --- rules -------------------------------------------------------

    def check_d1(self, src: SourceFile, out: list) -> None:
        decls = self.visible_decls(src)
        unordered = {n for n, d in decls.items() if d.unordered}
        mapped = {n for n, d in decls.items() if d.mapped_unordered}

        # Iterator variables that alias an unordered container's values:
        # `it = name.find(...)` where name maps to unordered values.
        aliased = set()
        for m in ITER_ASSIGN_RE.finditer(src.clean):
            var, target = m.group(1), base_identifier(m.group(2))
            if target in mapped:
                aliased.add(var)

        for m in RANGE_FOR_RE.finditer(src.clean):
            open_paren = src.clean.index("(", m.end() - 1)
            close_paren = find_balanced(src.clean, open_paren, "(", ")")
            if close_paren == -1:
                continue
            inner = src.clean[open_paren + 1:close_paren]
            colon = top_level_colon(inner)
            ln = line_of(src, m.start())
            if colon != -1:
                range_expr = inner[colon + 1:].strip()
                base = base_identifier(range_expr)
                hit = None
                if base in unordered:
                    hit = f"range-for over unordered container `{base}`"
                elif re.match(r"(\w+)\s*(?:->|\.)\s*second$", range_expr):
                    it = re.match(r"(\w+)", range_expr).group(1)
                    if it in aliased:
                        hit = (f"range-for over `{range_expr}` aliasing the "
                               "unordered mapped value")
                if hit and not waived(src, ln, "order-insensitive"):
                    out.append(Violation(
                        src.path, ln, "D1",
                        hit + " — bucket order is implementation-defined; "
                        "iterate a sorted/flat container or annotate "
                        "`// p2pex-lint: order-insensitive`"))
            else:
                im = re.match(
                    r"\s*(?:const\s+)?auto\s+\w+\s*=\s*"
                    r"([\w.>\-]+?)\s*(?:\.|->)\s*(?:c?begin)\s*\(", inner)
                if im:
                    base = base_identifier(im.group(1))
                    if base in unordered and not waived(src, ln, "order-insensitive"):
                        out.append(Violation(
                            src.path, ln, "D1",
                            f"iterator loop over unordered container `{base}`"
                            " — bucket order is implementation-defined; use a"
                            " deterministic key order or annotate "
                            "`// p2pex-lint: order-insensitive`"))

    def check_d2(self, src: SourceFile, out: list) -> None:
        for m in D2_SEED_RE.finditer(src.clean):
            ln = line_of(src, m.start())
            if not waived(src, ln, "seed-source-ok"):
                out.append(Violation(
                    src.path, ln, "D2",
                    f"banned nondeterministic source `{m.group(0).strip()}` — "
                    "all randomness must come from the seeded p2pex::Rng tree"))
        for m in D2_CLOCK_RE.finditer(src.clean):
            ln = line_of(src, m.start())
            if not waived(src, ln, "wall-clock-ok"):
                out.append(Violation(
                    src.path, ln, "D2",
                    f"wall-clock read `{m.group(0).strip()}` — results must "
                    "not depend on real time; telemetry-only uses carry "
                    "`// p2pex-lint: wall-clock-ok`"))
        for m in D2_HASH_PTR_RE.finditer(src.clean):
            ln = line_of(src, m.start())
            if not waived(src, ln, "pointer-key-ok"):
                out.append(Violation(
                    src.path, ln, "D2",
                    "std::hash over a pointer type — addresses vary run to "
                    "run; key on a strong id instead"))
        for name, info in collect_assoc_decls(src).items():
            if info.pointer_key and not waived(src, info.line, "pointer-key-ok"):
                out.append(Violation(
                    src.path, info.line, "D2",
                    f"associative container `{name}` keyed on a pointer — "
                    "address order varies run to run; key on a strong id or "
                    "annotate `// p2pex-lint: pointer-key-ok` if never "
                    "iterated"))

    def check_d3(self, src: SourceFile, out: list) -> None:
        rel = os.path.relpath(src.path, self.root)
        if not (rel.replace(os.sep, "/").startswith("src/core/")
                and rel.endswith(".cpp")):
            return
        for head in FUNC_HEAD_RE.finditer(src.clean):
            name = head.group(1)
            if name in NOT_A_FUNCTION or name.split("::")[-1] in NOT_A_FUNCTION:
                continue
            open_paren = src.clean.index("(", head.end() - 1)
            close_paren = find_balanced(src.clean, open_paren, "(", ")")
            if close_paren == -1:
                continue
            after = src.clean[close_paren + 1:close_paren + 120]
            bm = re.match(r"\s*(?:const)?\s*(?:noexcept)?\s*(?:->\s*[\w:<>]+)?\s*\{",
                          after)
            if not bm:
                continue
            body_open = close_paren + 1 + bm.end() - 1
            body_close = find_balanced(src.clean, body_open, "{", "}")
            if body_close == -1:
                continue
            body = src.clean[body_open:body_close]
            first_hit = None
            for pat in MUTATION_PATTERNS:
                hm = pat.search(body)
                if hm and (first_hit is None or hm.start() < first_hit[0]):
                    first_hit = (hm.start(), hm.group(0).strip())
            if first_hit is None:
                continue
            if "touch_graph" in body:
                continue
            lo = line_of(src, body_open)
            hi = line_of(src, body_close)
            if any("no-graph-effect" in src.waivers.get(ln, set())
                   for ln in range(lo, hi + 1)):
                continue
            ln = line_of(src, body_open + first_hit[0])
            out.append(Violation(
                src.path, ln, "D3",
                f"`{head.group(1)}` mutates peer-visible state "
                f"(`{first_hit[1]}`) without touch_graph(...) in the same "
                "function — the GraphSnapshot goes stale; add the touch or "
                "annotate `// p2pex-lint: no-graph-effect` with a rationale"))

    def check_d4(self, src: SourceFile, out: list) -> None:
        for m in D4_CAST_RE.finditer(src.clean):
            ln = line_of(src, m.start())
            if waived(src, ln, "checked-narrowing"):
                continue
            out.append(Violation(
                src.path, ln, "D4",
                "raw static_cast to uint32_t — arena offsets and ids wrap "
                "silently at 2^32; use p2pex::narrow_u32() / "
                "StrongId::from_index(), or annotate "
                "`// p2pex-lint: checked-narrowing` next to a local guard"))

    def check_file(self, src: SourceFile) -> list:
        out: list = []
        self.check_d1(src, out)
        self.check_d2(src, out)
        self.check_d3(src, out)
        self.check_d4(src, out)
        return out


class ClangEngine(LexicalEngine):
    """Type-accurate D1 via libclang when python3-clang is importable.

    Only D1 benefits from real type information (resolving `it->second`
    and auto through typedefs); D2-D4 reuse the lexical checks, which are
    already token-precise. Any per-file libclang failure falls back to
    the lexical D1."""

    def __init__(self, project_root: str):
        super().__init__(project_root)
        import clang.cindex  # noqa: F401  (raises ImportError -> caller falls back)
        self._cindex = __import__("clang.cindex", fromlist=["cindex"])
        self._index = self._cindex.Index.create()

    def check_d1(self, src: SourceFile, out: list) -> None:
        try:
            tu = self._index.parse(
                src.path,
                args=["-std=c++20", f"-I{os.path.join(self.root, 'src')}"],
                options=0)
            kinds = self._cindex.CursorKind
            found = False
            for cur in tu.cursor.walk_preorder():
                if cur.kind != kinds.CXX_FOR_RANGE_STMT:
                    continue
                children = list(cur.get_children())
                if not children:
                    continue
                range_init = children[-2] if len(children) >= 2 else children[0]
                ty = range_init.type.get_canonical().spelling
                if "unordered_map" in ty or "unordered_set" in ty:
                    ln = cur.location.line
                    if not waived(src, ln, "order-insensitive"):
                        out.append(Violation(
                            src.path, ln, "D1",
                            f"range-for over `{ty}` — bucket order is "
                            "implementation-defined; annotate "
                            "`// p2pex-lint: order-insensitive` or use a "
                            "sorted/flat container"))
                found = True
            if not found and tu.diagnostics:
                raise RuntimeError("no usable AST")
        except Exception:  # pragma: no cover - environment-dependent
            super().check_d1(src, out)


def make_engine(name: str, root: str):
    if name in ("clang", "auto"):
        try:
            return ClangEngine(root)
        except ImportError:
            if name == "clang":
                print("p2pex-lint: python3-clang not importable; "
                      "falling back to the lexical engine", file=sys.stderr)
    return LexicalEngine(root)


def gather_files(paths: list, root: str) -> list:
    files = []
    for p in paths:
        ap = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isdir(ap):
            for dirpath, _dirnames, filenames in os.walk(ap):
                for fn in sorted(filenames):
                    if fn.endswith((".cpp", ".h", ".cc", ".hpp")):
                        files.append(os.path.join(dirpath, fn))
        elif os.path.isfile(ap):
            files.append(ap)
        else:
            print(f"p2pex-lint: no such path: {p}", file=sys.stderr)
    return sorted(set(files))


def lint_paths(engine, paths: list, root: str):
    violations = []
    files = gather_files(paths, root)
    sources = {}
    for path in files:
        try:
            with open(path, encoding="utf-8") as f:
                src = SourceFile(path, f.read())
        except OSError as err:
            print(f"p2pex-lint: cannot read {path}: {err}", file=sys.stderr)
            continue
        strip_comments_and_strings(src)
        sources[path] = src
        violations.extend(engine.check_file(src))
    # Nested bodies (lambdas inside a function) can surface the same site
    # twice; one diagnostic per (file, line, rule) is enough.
    seen = set()
    unique = []
    for v in violations:
        key = (v.path, v.line, v.rule)
        if key not in seen:
            seen.add(key)
            unique.append(v)
    return unique, sources


def run_selftest(engine_name: str, corpus: str, root: str) -> int:
    engine = make_engine(engine_name, corpus)
    violations, sources = lint_paths(engine, [corpus], corpus)
    by_file: dict = {}
    for v in violations:
        by_file.setdefault(v.path, []).append((v.line, v.rule))
    failures = 0
    for path in sorted(sources):
        expected = sorted(sources[path].expects)
        got = sorted(by_file.get(path, []))
        if expected == got:
            status = "ok"
        else:
            status = "FAIL"
            failures += 1
        rel = os.path.relpath(path, corpus)
        print(f"  [{status}] {rel}: expected {expected or 'clean'}, got {got or 'clean'}")
        if status == "FAIL":
            for v in by_file.get(path, []):
                print(f"         found {v[1]} at line {v[0]}")
    total = len(sources)
    print(f"p2pex-lint selftest: {total - failures}/{total} corpus files behave"
          f" as annotated ({engine.__class__.__name__})")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="p2pex_lint.py",
        description="Determinism/capacity static analysis for p2pex "
                    "(rules D1-D4; see module docstring).")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to lint (default: src/)")
    parser.add_argument("--root", default=None,
                        help="project root (default: two levels above this "
                             "script)")
    parser.add_argument("--engine", choices=["auto", "lexical", "clang"],
                        default="lexical",
                        help="analysis engine (default: lexical; clang needs "
                             "python3-clang)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the rule corpus under tools/lint/tests/")
    parser.add_argument("--corpus", default=None,
                        help="corpus dir for --selftest")
    parser.add_argument("--stats", action="store_true",
                        help="print per-rule violation counts")
    args = parser.parse_args(argv)

    script_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(args.root or os.path.join(script_dir, "..", ".."))

    if args.selftest:
        corpus = args.corpus or os.path.join(script_dir, "tests", "corpus")
        return run_selftest(args.engine, os.path.abspath(corpus), root)

    paths = args.paths or ["src"]
    engine = make_engine(args.engine, root)
    violations, _sources = lint_paths(engine, paths, root)
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    for v in violations:
        print(v.render())
    if args.stats:
        counts: dict = {}
        for v in violations:
            counts[v.rule] = counts.get(v.rule, 0) + 1
        for rule in sorted(RULES):
            print(f"  {rule} ({RULES[rule]}): {counts.get(rule, 0)}")
    if violations:
        print(f"p2pex-lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
