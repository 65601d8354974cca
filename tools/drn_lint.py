#!/usr/bin/env python3
"""Project lint for the drn codebase (src/, bench/, tools/).

Enforces the determinism and hygiene rules the simulator's reproducibility
depends on, none of which clang-tidy checks:

  rand            no C rand()/srand(): unseedable per-stream, breaks sweep
                  determinism.
  std-rng         no <random> engines (mt19937, default_random_engine) or
                  std::random_device: all randomness flows through drn::Rng
                  so every stream is derived from the master seed.
  wall-clock-seed no time(NULL)/system_clock-derived values: results must be
                  a pure function of the command line.
  float-eq        no ==/!= where an operand is a float literal or carries a
                  unit suffix (_s,_w,_db,_bps,_hz,_m,_pps): exact equality
                  on computed physical quantities is almost always a bug.
  pragma-once     every header starts its include guard with #pragma once.
  using-std       no `using namespace std`.
  iostream-lib    no <iostream> in library code under src/: libraries report
                  through return values and exceptions, only CLIs print.
  dense-matrix    no PropagationMatrix::from_placement in library code under
                  src/ outside radio/propagation_matrix.* and
                  radio/interference_engine.*, nor in the CLIs under tools/:
                  the O(M^2) matrix only enters via the guarded
                  make_dense_gains route (or the near/far engine, which never
                  builds it), and a CLI gets its trial from runner::Trial
                  rather than growing its own setup.
  position-state  no positions_ member access in library code under src/
                  outside dynamics/mobility.*, geo/grid_index.* and
                  radio/interference_engine.*: station position state has
                  exactly those owners; every move must flow through
                  Simulator::try_move_station so gains, spatial index and
                  in-flight receptions are updated together.
  raw-unit-param  no raw `double` parameters with a physical-unit suffix
                  (_s,_w,_db,_bps,_hz,_m) in public headers under src/radio/
                  and src/analysis/ outside the sanctioned boundary files
                  (units.*): dimensional quantities cross those APIs as the
                  strong types of common/units.hpp, not suffix-annotated
                  doubles.
  unordered-iter  no range-for over a std::unordered_{map,set} in src/sim/
                  and src/radio/: unordered iteration order varies across
                  libstdc++ versions, so any result-affecting loop over one
                  silently breaks bit-reproducibility. Iterate a sorted copy
                  or an ordered container instead.
  manual-db       no hand-rolled dB conversions (pow(10, x/10),
                  10*log10(x)) outside the units files: every dB <-> linear
                  crossing goes through Decibels::to_linear() /
                  LinearGain::to_db() (or radio::from_db/to_db at raw-double
                  boundaries) so conversion sites stay auditable.
  raw-event-copy  no by-value sim::Event outside src/sim/: the slim Event
                  header and its payload union are the event core's
                  private wire format. Code elsewhere consumes the typed
                  observer structs (TxEvent/RxEvent) or MacContext hooks;
                  a stray Event copy carries a staged-packet index or a
                  timer's generation stamp away from the layer that gives
                  it meaning.
  reach-rule      no division of target_received_w by max_power_w
                  outside src/core/power_control.*: the Section-6.1 reach
                  threshold has one home, PowerControl::min_gain(), so the
                  scheduled network's neighbours and the routing graph's
                  edges can never disagree on a boundary gain.
  layer-boundary  the simulator's layering (DESIGN.md section 13) is
                  one-directional: src/radio/ (the physical substrate) must
                  not include sim/; src/sim/ must not include runner/ or
                  dynamics/ (drivers sit ABOVE the simulator); and the
                  medium (src/sim/medium.*) must not include sim/mac.hpp —
                  MAC hooks reach it only through RadioMedium::Client, so
                  the physical layer stays studyable with any MAC swapped
                  in above it.

Suppress a finding by appending `// drn-lint: allow(<rule>)` to the line,
which is a grep-able record that a human judged the exception sound. The
rule name is mandatory and must name a known rule: a bare `allow`, an empty
`allow()` or an unknown rule name is itself reported (bad-suppression), so a
typo can never silently disable a check.

Modes (--mode):
  regex   pure-regex analysis (default behaviour, zero dependencies).
  ast     AST-grade analysis of raw-unit-param and unordered-iter through
          libclang (python3 -c "import clang.cindex" must work); the
          remaining rules stay regex. Exits 2 if libclang is unavailable.
  auto    ast when libclang imports, regex otherwise (never fails on a
          missing dependency).

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

RULES = {
    "rand": re.compile(r"\b(?:std::)?s?rand\s*\("),
    "std-rng": re.compile(
        r"\bstd::(?:mt19937(?:_64)?|default_random_engine|minstd_rand0?"
        r"|random_device)\b"
    ),
    "wall-clock-seed": re.compile(
        r"\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)|\bsystem_clock\b"
    ),
    "using-std": re.compile(r"\busing\s+namespace\s+std\b"),
}

# Every rule a suppression may name; anything else is a bad-suppression.
KNOWN_RULES = frozenset(RULES) | {
    "float-eq",
    "pragma-once",
    "iostream-lib",
    "dense-matrix",
    "position-state",
    "raw-unit-param",
    "unordered-iter",
    "manual-db",
    "raw-event-copy",
    "layer-boundary",
    "reach-rule",
}

# An operand that makes ==/!= a floating-point comparison: a float literal
# (1.0, .5, 1e-9) or an identifier with a physical-unit suffix.
FLOAT_OPERAND = (
    r"(?:\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+"
    r"|[A-Za-z_][\w.\->\[\]]*_(?:s|w|db|bps|hz|m|pps)\b)"
)
FLOAT_EQ = re.compile(
    rf"(?:{FLOAT_OPERAND}\s*[=!]=|[=!]=\s*{FLOAT_OPERAND})"
)
# ==/!= inside relational contexts we must not misread: exact-match guards
# against <=, >=, ->, templates are handled by requiring a bare [=!]= above.

DENSE_MATRIX = re.compile(r"\bfrom_placement\s*\(")
# Where the rule applies, and the only library files there allowed to touch
# the O(M^2) dense-matrix build.
DENSE_MATRIX_ROOTS = ("src", "tools")
DENSE_MATRIX_EXEMPT = ("propagation_matrix", "interference_engine")

# The reach threshold spelled out by hand: `target_received_w /
# cfg.max_power_w` and the like. PowerControl is its one home.
REACH_RULE = re.compile(r"\btarget_received_w\s*/\s*[\w.\->]*max_power_w\b")

POSITION_STATE = re.compile(r"\bpositions_\b")
# The only library files allowed to hold or touch station position state.
POSITION_STATE_EXEMPT = ("mobility", "grid_index", "interference_engine")

# A `double` PARAMETER whose name carries a unit suffix: `double foo_db,`,
# `double foo_s)` or `double foo_hz =`. A function NAMED with a suffix
# (`double margin_db() const`) is a sanctioned raw read, not a parameter, and
# is excluded by refusing a following `(`.
RAW_UNIT_PARAM = re.compile(
    r"\bdouble\s+(\w+_(?:s|w|db|bps|hz|m))\s*(?![\w(])"
)
RAW_UNIT_DIRS = ("radio", "analysis")
RAW_UNIT_EXEMPT = ("units",)

# Declarations of unordered containers, to resolve what a range-for walks.
UNORDERED_DECL = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s+(\w+)\s*[;{=(]"
)
RANGE_FOR = re.compile(r"\bfor\s*\([^;)]*:\s*([^)]+)\)")
UNORDERED_ITER_DIRS = ("sim", "radio")

# Hand-rolled dB conversions: 10^(x/10) or 10*log10(x) (and the /20 voltage
# forms). The units files are the one sanctioned home for these formulas.
# pow(10, n) without a /10 exponent (a decade count) is not a conversion.
MANUAL_DB = re.compile(
    r"pow\s*\(\s*10(?:\.0*)?\s*,.*/\s*(?:10|20)(?:\.0*)?\s*\)"
    r"|10(?:\.0*)?\s*\*\s*(?:std::)?log10\s*\("
)
MANUAL_DB_EXEMPT = ("units",)

# A by-value `Event` declaration, parameter or return: `Event e`,
# `sim::Event pop()`. References (`Event&`), pointers and the longer-named
# observer structs (TxEvent, RxEvent) and Event* types (EventQueue,
# EventHandle, EventKind) do not match. Only src/sim/ may traffic in raw
# Events.
RAW_EVENT_COPY = re.compile(r"\b(?:sim::)?Event\s+\w+")

# Quoted project includes, for the layer-boundary rule. System includes
# (<...>) can never name a project layer.
PROJECT_INCLUDE = re.compile(r'#\s*include\s+"([^"]+)"')


def layer_boundary_reason(module: str, stem: str, include: str):
    """Why `include` violates the layering from a file in src/<module>/
    (None when it does not). Pure include-direction checks, so the rule is
    textual in both regex and AST modes."""
    if module == "radio" and include.startswith("sim/"):
        return (
            "src/radio/ is the physical substrate and must not include "
            "sim/ (the simulator sits above it)"
        )
    if module == "sim" and include.startswith(("runner/", "dynamics/")):
        return (
            "src/sim/ must not include runner/ or dynamics/ (drivers sit "
            "above the simulator and are plugged in, never reached down to)"
        )
    if module == "sim" and stem == "medium" and (
        include == "sim/mac.hpp" or include.endswith("/mac.hpp")
    ):
        return (
            "the medium is MAC-free by design: MAC hooks reach it only "
            "through RadioMedium::Client"
        )
    return None


ALLOW = re.compile(r"//\s*drn-lint:\s*allow\s*(?:\(([^)]*)\))?")
COMMENT = re.compile(r"//.*$")
STRING = re.compile(r'"(?:[^"\\]|\\.)*"' + r"|'(?:[^'\\]|\\.)'")


def suppressed_rules(line: str) -> list[str]:
    m = ALLOW.search(line)
    if not m or m.group(1) is None:
        return []
    return [r.strip() for r in m.group(1).split(",") if r.strip()]


def allowed(line: str, rule: str) -> bool:
    return rule in suppressed_rules(line)


def strip_noise(line: str) -> str:
    """Removes string/char literals and trailing // comments so rule
    patterns only see code."""
    line = STRING.sub('""', line)
    return COMMENT.sub("", line)


def lint_file(path: pathlib.Path, repo: pathlib.Path,
              ast_rules: set[str]) -> list[str]:
    """Regex lint of one file. Rules named in `ast_rules` are skipped here
    because an AST pass covers them with type information."""
    findings: list[str] = []
    rel = path.relative_to(repo)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        return [f"{rel}: unreadable: {err}"]

    def report(lineno: int, rule: str, message: str) -> None:
        findings.append(f"{rel}:{lineno}: [{rule}] {message}")

    is_header = path.suffix == ".hpp"
    in_library = rel.parts[0] == "src"
    module = rel.parts[1] if in_library and len(rel.parts) > 2 else ""
    lines = text.splitlines()

    if is_header and not any(
        line.strip() == "#pragma once" for line in lines[:40]
    ):
        report(1, "pragma-once", "header does not start with #pragma once")

    # Names declared as unordered containers anywhere in this file (regex
    # fallback for unordered-iter; the AST mode resolves real types).
    unordered_names: set[str] = set()
    if "unordered-iter" not in ast_rules:
        for m in UNORDERED_DECL.finditer(text):
            unordered_names.add(m.group(1))

    in_block_comment = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2 :]
            in_block_comment = False
        start = line.find("/*")
        if start >= 0 and "*/" not in line[start:]:
            in_block_comment = True
            line = line[:start]
        code = strip_noise(line)

        # Suppression hardening: every drn-lint marker must name known
        # rules. Checked on the RAW line (suppressions live in comments).
        allow_m = ALLOW.search(raw)
        if allow_m:
            named = suppressed_rules(raw)
            if not named:
                report(
                    lineno,
                    "bad-suppression",
                    "suppression must name the rule it waives: "
                    "// drn-lint: allow(<rule>)",
                )
            for rule_name in named:
                if rule_name not in KNOWN_RULES:
                    report(
                        lineno,
                        "bad-suppression",
                        f"unknown rule '{rule_name}' in suppression "
                        f"(known: {', '.join(sorted(KNOWN_RULES))})",
                    )

        for rule, pattern in RULES.items():
            if pattern.search(code) and not allowed(raw, rule):
                report(lineno, rule, f"forbidden pattern: {pattern.pattern}")
        if FLOAT_EQ.search(code) and not allowed(raw, "float-eq"):
            report(
                lineno,
                "float-eq",
                "exact ==/!= on a floating-point quantity "
                "(compare with a tolerance, or justify with "
                "// drn-lint: allow(float-eq))",
            )
        if (
            in_library
            and "#include <iostream>" in code
            and not allowed(raw, "iostream-lib")
        ):
            report(lineno, "iostream-lib", "<iostream> in library code")
        if (
            rel.parts[0] in DENSE_MATRIX_ROOTS
            and path.stem not in DENSE_MATRIX_EXEMPT
            and DENSE_MATRIX.search(code)
            and not allowed(raw, "dense-matrix")
        ):
            report(
                lineno,
                "dense-matrix",
                "from_placement builds the O(M^2) matrix; library and CLI "
                "code must go through radio::make_dense_gains (guarded), the "
                "near/far engine, or runner::Trial",
            )
        if (
            not (module == "core" and path.stem == "power_control")
            and REACH_RULE.search(code)
            and not allowed(raw, "reach-rule")
        ):
            report(
                lineno,
                "reach-rule",
                "the reach threshold is computed only by "
                "core::PowerControl::min_gain(); ask it (e.g. "
                "cfg.power().min_gain()) instead of dividing by hand",
            )
        if (
            in_library
            and path.stem not in POSITION_STATE_EXEMPT
            and POSITION_STATE.search(code)
            and not allowed(raw, "position-state")
        ):
            report(
                lineno,
                "position-state",
                "positions_ state belongs to the mobility model / grid "
                "index / near-far engine; move stations through "
                "Simulator::try_move_station instead",
            )
        if (
            "raw-unit-param" not in ast_rules
            and in_library
            and is_header
            and module in RAW_UNIT_DIRS
            and path.stem not in RAW_UNIT_EXEMPT
            and not allowed(raw, "raw-unit-param")
        ):
            m = RAW_UNIT_PARAM.search(code)
            if m:
                report(
                    lineno,
                    "raw-unit-param",
                    f"raw double parameter '{m.group(1)}' carries a unit "
                    "suffix; pass the strong type from common/units.hpp "
                    "instead",
                )
        if (
            "unordered-iter" not in ast_rules
            and in_library
            and module in UNORDERED_ITER_DIRS
            and not allowed(raw, "unordered-iter")
        ):
            m = RANGE_FOR.search(code)
            if m:
                expr = m.group(1).strip()
                base = re.split(r"[.\->(\[]", expr)[0].strip().rstrip("_")
                hits_decl = any(
                    n.rstrip("_") == base for n in unordered_names
                )
                if "unordered" in expr or hits_decl:
                    report(
                        lineno,
                        "unordered-iter",
                        "range-for over an unordered container: iteration "
                        "order is implementation-defined and breaks "
                        "bit-reproducibility; iterate a sorted copy",
                    )
        if (
            not (in_library and module == "sim")
            and RAW_EVENT_COPY.search(code)
            and not allowed(raw, "raw-event-copy")
        ):
            report(
                lineno,
                "raw-event-copy",
                "by-value sim::Event outside src/sim/; consume TxEvent/"
                "RxEvent observer structs or MacContext hooks instead",
            )
        if in_library and not allowed(raw, "layer-boundary"):
            # The include path IS a string literal, so search the comment-
            # stripped line rather than the literal-stripped `code`.
            m = PROJECT_INCLUDE.search(COMMENT.sub("", line))
            if m:
                reason = layer_boundary_reason(
                    module, path.stem, m.group(1)
                )
                if reason:
                    report(
                        lineno,
                        "layer-boundary",
                        f"include of \"{m.group(1)}\" crosses a layer "
                        f"boundary: {reason}",
                    )
        if (
            path.stem not in MANUAL_DB_EXEMPT
            and MANUAL_DB.search(code)
            and not allowed(raw, "manual-db")
        ):
            report(
                lineno,
                "manual-db",
                "hand-rolled dB conversion; use Decibels::to_linear() / "
                "LinearGain::to_db() (or radio::from_db/to_db at a "
                "raw-double boundary)",
            )
    return findings


# --- AST mode (libclang) --------------------------------------------------


def load_libclang():
    """Returns the clang.cindex module, or None when unavailable."""
    try:
        import clang.cindex  # type: ignore[import-not-found]

        # Force an index to verify the native library actually loads.
        clang.cindex.Index.create()
        return clang.cindex
    except Exception:  # noqa: BLE001 - any failure means "no AST mode"
        return None


UNIT_SUFFIXES = ("_s", "_w", "_db", "_bps", "_hz", "_m")


def ast_lint_file(cindex, path: pathlib.Path, repo: pathlib.Path,
                  include_dir: pathlib.Path) -> list[str]:
    """AST-grade raw-unit-param and unordered-iter for one file."""
    findings: list[str] = []
    rel = path.relative_to(repo)
    lines = path.read_text(encoding="utf-8").splitlines()

    def raw_line(lineno: int) -> str:
        return lines[lineno - 1] if 0 < lineno <= len(lines) else ""

    def report(lineno: int, rule: str, message: str) -> None:
        if not allowed(raw_line(lineno), rule):
            findings.append(f"{rel}:{lineno}: [{rule}] {message}")

    index = cindex.Index.create()
    tu = index.parse(
        str(path),
        args=["-std=c++20", f"-I{include_dir}", "-x", "c++"],
    )

    module = rel.parts[1] if len(rel.parts) > 2 else ""
    check_params = (
        rel.parts[0] == "src"
        and module in RAW_UNIT_DIRS
        and path.suffix == ".hpp"
        and path.stem not in RAW_UNIT_EXEMPT
    )
    check_iter = rel.parts[0] == "src" and module in UNORDERED_ITER_DIRS

    def walk(node):
        if node.location.file and node.location.file.name != str(path):
            return  # only report on the file under lint, not its includes
        if (
            check_params
            and node.kind == cindex.CursorKind.PARM_DECL
            and node.type.get_canonical().spelling == "double"
            and node.spelling.endswith(UNIT_SUFFIXES)
        ):
            report(
                node.location.line,
                "raw-unit-param",
                f"raw double parameter '{node.spelling}' carries a unit "
                "suffix; pass the strong type from common/units.hpp instead",
            )
        if (
            check_iter
            and node.kind == cindex.CursorKind.CXX_FOR_RANGE_STMT
        ):
            for child in node.get_children():
                t = child.type.get_canonical().spelling
                if "unordered_map" in t or "unordered_set" in t:
                    report(
                        node.location.line,
                        "unordered-iter",
                        "range-for over an unordered container: iteration "
                        "order is implementation-defined and breaks "
                        "bit-reproducibility; iterate a sorted copy",
                    )
                    break
        for child in node.get_children():
            walk(child)

    walk(tu.cursor)
    return findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "roots",
        nargs="*",
        default=["src", "bench", "tools"],
        help="directories (relative to the repo root) to lint",
    )
    parser.add_argument(
        "--mode",
        choices=("auto", "regex", "ast"),
        default="auto",
        help="analysis mode: regex-only, libclang AST, or auto-detect",
    )
    args = parser.parse_args(argv)

    cindex = None
    if args.mode in ("auto", "ast"):
        cindex = load_libclang()
        if cindex is None:
            if args.mode == "ast":
                print(
                    "drn_lint: --mode ast requires libclang "
                    '(python3 -c "import clang.cindex" must succeed)',
                    file=sys.stderr,
                )
                return 2
            print(
                "drn_lint: libclang unavailable, falling back to regex mode",
                file=sys.stderr,
            )
    ast_rules: set[str] = (
        {"raw-unit-param", "unordered-iter"} if cindex else set()
    )

    repo = pathlib.Path(__file__).resolve().parent.parent
    files: list[pathlib.Path] = []
    for root in args.roots:
        base = repo / root
        if not base.is_dir():
            print(f"drn_lint: no such directory: {root}", file=sys.stderr)
            return 2
        files += sorted(base.rglob("*.cpp")) + sorted(base.rglob("*.hpp"))

    findings: list[str] = []
    for path in files:
        findings += lint_file(path, repo, ast_rules)
        if cindex is not None:
            findings += ast_lint_file(cindex, path, repo, repo / "src")

    for finding in findings:
        print(finding)
    mode_label = "ast" if cindex else "regex"
    print(
        f"drn_lint[{mode_label}]: {len(files)} files, "
        f"{len(findings)} findings",
        file=sys.stderr,
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
