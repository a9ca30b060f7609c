#!/usr/bin/env python3
"""Determinism lint for the result-affecting tree (DESIGN.md, "Static
analysis").

The solver's output contract is bit-identical answers for identical inputs
— the golden corpus, the canonical-form cache, and the persistence layer
all depend on it.  This lint guards the three classic ways C++ code breaks
that contract silently:

  unordered-container  std::unordered_{map,set,multimap,multiset} in
                       result-affecting code.  Their iteration order is
                       unspecified and varies across libstdc++ versions,
                       hash seeds, and allocation history; any loop over
                       one can leak that order into results.  Flagged at
                       the declaration: a waiver must argue the container
                       is only ever probed point-wise, never iterated.
  banned-randomness    rand()/srand()/rand_r()/drand48()/random_device —
                       nondeterministic or global-state randomness.
                       Seeded std::mt19937 engines are fine (and used by
                       the test generators, which this lint does not
                       cover) because they are pure functions of the seed.
  wall-clock           std::chrono::{system,steady,high_resolution}_clock,
                       time()/clock_gettime()/gettimeofday() — time-based
                       branching makes results depend on the scheduler.
                       Timing belongs in bench/ and the serving layer's
                       stats, both outside the scanned roots.
  fp-outside-allowlist `double`/`float`/`long double` anywhere except the
                       modules blessed to do floating-point arithmetic
                       (the LP solver and its pricing/rounding clients,
                       which own the epsilon discipline documented in
                       lp/simplex.hpp).  Everything else computes in
                       exact integer Length/Height arithmetic, so a stray
                       double is either dead weight or a rounding bug
                       waiting to reorder two packings.

Scope: src/core, src/approx, src/algo, src/lp — the code whose output
feeds the answer.  The service layer intentionally uses time (admission
deadlines, persistence timestamps) and is covered by the thread-safety
analysis instead.

src/runtime gets a narrower, wall-clock-only scan: no runtime file may
name a clock, which is what keeps timing from leaking through the
pool/parallel plumbing into the result-affecting roots above.  (tools/lint_fixtures/timing_violation is a negative
fixture tree proving this gate actually fires; CI runs the lint against
it and requires failure.)

Waivers are per-line, must name the rule, and must carry a rationale:

    std::unordered_map<u64, int> dedup;  // det-lint: allow(unordered-container): probed by key only, never iterated

A waiver on its own line covers the next line.  Waivers without a
rationale are themselves errors — the point is a reviewable argument, not
a mute button.

Matching runs on comment- and string-stripped text (so prose about clocks
or doubles cannot trip it), with line structure preserved for reporting.
This is a regex lint, not a compiler: it trades soundness for zero
dependencies (plain python3, no clang needed) and is tuned to this tree's
idiom.  If `clang-query` is on PATH it additionally runs an AST matcher
that catches range-for loops over unordered containers that the
declaration scan would only see via the member type.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import shutil
import subprocess
import sys

# Directories whose code affects results, relative to the repo root.
RESULT_AFFECTING = ("src/core", "src/approx", "src/algo", "src/lp")

# The runtime layer: scanned for wall-clock use only (its concurrency is
# covered by the thread-safety analysis; unordered containers and FP are
# legitimate there).
RUNTIME_DIR = "src/runtime"

# The observability layer: scanned for wall-clock and randomness.  Spans
# observe time but never feed it back into solving (obs/trace.hpp's
# determinism argument), and the structural enforcement is this pass: the
# one file allowed to name a clock is trace.cpp, where every steady_clock
# call lives out of line.  Any other clock under src/obs — or any clock an
# instrumented result-affecting file would gain — is a finding.
OBS_DIR = "src/obs"
OBS_CLOCK_ALLOWLIST = ("src/obs/trace.cpp",)

# Modules blessed for floating-point arithmetic.  The LP relaxation is
# inherently fractional; its epsilon/comparison discipline is centralized
# and documented in lp/simplex.hpp, and pricing/config_lp consume its
# values.  Keep this list short — every entry widens the surface on which
# FP ordering bugs can appear.
FP_ALLOWLIST = (
    "src/lp/simplex.hpp",
    "src/lp/simplex.cpp",
    "src/approx/pricing.hpp",
    "src/approx/pricing.cpp",
    "src/approx/config_lp.hpp",
    "src/approx/config_lp.cpp",
)

RULES = {
    "unordered-container": re.compile(
        r"\bstd\s*::\s*unordered_(?:multi)?(?:map|set)\b"
    ),
    "banned-randomness": re.compile(
        r"\b(?:rand|srand|rand_r|drand48|lrand48|mrand48)\s*\("
        r"|\bstd\s*::\s*random_device\b|\brandom_device\s+"
    ),
    "wall-clock": re.compile(
        r"\bstd\s*::\s*chrono\s*::\s*(?:system|steady|high_resolution)_clock\b"
        r"|\b(?:gettimeofday|clock_gettime|timespec_get)\s*\("
        r"|\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
    ),
    "fp-outside-allowlist": re.compile(
        r"\b(?:double|float)\b"
    ),
}

WAIVER = re.compile(
    r"//\s*det-lint:\s*allow\(([a-z-]+)\)\s*(?::\s*(\S.*))?"
)

CLANG_QUERY_MATCHER = (
    "match cxxForRangeStmt(hasRangeInit(expr(hasType(qualType(hasDeclaration("
    "namedDecl(matchesName(\"unordered_\"))))))))"
)


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments, string literals, and char literals, preserving
    newlines (and thus line numbers).  Handles //, /* */, "..." with
    escapes, '...' with escapes; raw strings are rare here and handled as
    ordinary strings conservatively."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif c == '"' or c == "'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def collect_waivers(
    raw_lines: list[str], stripped_lines: list[str]
) -> tuple[dict[int, set[str]], list[str]]:
    """Returns ({line_no: rules waived on that line}, [errors]).  A waiver
    sharing a line with code covers that line; a waiver on its own comment
    line covers the next line that has code on it (so a waiver above a
    wrapped declaration, or one whose rationale spills onto a continuation
    comment line, still reaches it)."""
    waived: dict[int, set[str]] = {}
    errors: list[str] = []
    for idx, line in enumerate(raw_lines, start=1):
        m = WAIVER.search(line)
        if not m:
            continue
        rule, rationale = m.group(1), m.group(2)
        if rule not in RULES:
            errors.append(f"line {idx}: waiver names unknown rule '{rule}'")
            continue
        if not rationale or not rationale.strip():
            errors.append(
                f"line {idx}: waiver for '{rule}' has no rationale — "
                "write why the use is deterministic"
            )
            continue
        if line[: m.start()].strip():
            target = idx
        else:
            target = idx + 1
            while target <= len(stripped_lines) and not stripped_lines[
                target - 1
            ].strip():
                target += 1
        waived.setdefault(target, set()).add(rule)
    return waived, errors


def lint_file(
    path: pathlib.Path, rel: str, rules: tuple[str, ...] | None = None
) -> list[str]:
    """Lints one file; `rules` restricts the scan (None = every rule),
    which is how the runtime tree gets its wall-clock-only pass."""
    text = path.read_text(encoding="utf-8")
    raw_lines = text.splitlines()
    stripped_lines = strip_comments_and_strings(text).splitlines()
    waived, findings = collect_waivers(raw_lines, stripped_lines)
    findings = [f"{rel}:{msg}" for msg in findings]

    fp_allowed = rel in FP_ALLOWLIST
    for idx, line in enumerate(stripped_lines, start=1):
        for rule, pattern in RULES.items():
            if rules is not None and rule not in rules:
                continue
            if rule == "fp-outside-allowlist" and fp_allowed:
                continue
            if not pattern.search(line):
                continue
            if rule in waived.get(idx, set()):
                continue
            findings.append(
                f"{rel}:{idx}: [{rule}] {raw_lines[idx - 1].strip()}"
            )
    return findings


def run_clang_query(root: pathlib.Path, files: list[pathlib.Path]) -> list[str]:
    """AST pass: range-for over an unordered container (catches iteration
    through members and typedefs the declaration regex cannot see).  Soft
    dependency — silently skipped when clang-query or the compilation
    database is missing."""
    exe = shutil.which("clang-query")
    compdb = root / "build" / "compile_commands.json"
    if not exe or not compdb.exists():
        return []
    sources = [str(f) for f in files if f.suffix == ".cpp"]
    if not sources:
        return []
    try:
        proc = subprocess.run(
            [exe, "-p", str(compdb.parent), "-c", CLANG_QUERY_MATCHER, *sources],
            capture_output=True,
            text=True,
            timeout=600,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        return [f"clang-query pass failed: {err}"]
    findings = []
    for line in proc.stdout.splitlines():
        m = re.match(r"^(\S+?):(\d+):\d+: note:", line)
        if m:
            rel = str(pathlib.Path(m.group(1)).resolve().relative_to(root))
            findings.append(
                f"{rel}:{m.group(2)}: [unordered-container] "
                "range-for over an unordered container (clang-query)"
            )
    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repository root (default: the checkout containing this script)",
    )
    parser.add_argument(
        "--no-clang-query",
        action="store_true",
        help="skip the optional clang-query AST pass even if available",
    )
    args = parser.parse_args()
    root = args.root.resolve()

    files: list[pathlib.Path] = []
    for sub in RESULT_AFFECTING:
        d = root / sub
        if not d.is_dir():
            print(f"lint_determinism: missing directory {d}", file=sys.stderr)
            return 2
        files.extend(sorted(d.glob("*.hpp")))
        files.extend(sorted(d.glob("*.cpp")))

    findings: list[str] = []
    for f in files:
        findings.extend(lint_file(f, str(f.relative_to(root))))
    if not args.no_clang_query:
        findings.extend(run_clang_query(root, files))

    # Runtime pass: wall-clock only — a clock anywhere in runtime/ is how
    # timing would creep toward the result-affecting roots.
    runtime_dir = root / RUNTIME_DIR
    if not runtime_dir.is_dir():
        print(
            f"lint_determinism: missing directory {runtime_dir}",
            file=sys.stderr,
        )
        return 2
    runtime_files = sorted(runtime_dir.glob("*.hpp")) + sorted(
        runtime_dir.glob("*.cpp")
    )
    for f in runtime_files:
        findings.extend(
            lint_file(f, str(f.relative_to(root)), rules=("wall-clock",))
        )
    files.extend(runtime_files)

    # Observability pass: randomness is banned everywhere under src/obs,
    # and wall-clock is pinned to exactly trace.cpp.
    obs_dir = root / OBS_DIR
    if not obs_dir.is_dir():
        print(f"lint_determinism: missing directory {obs_dir}", file=sys.stderr)
        return 2
    obs_files = sorted(obs_dir.glob("*.hpp")) + sorted(obs_dir.glob("*.cpp"))
    for f in obs_files:
        rel = str(f.relative_to(root))
        rules = (
            ("banned-randomness",)
            if rel in OBS_CLOCK_ALLOWLIST
            else ("wall-clock", "banned-randomness")
        )
        findings.extend(lint_file(f, rel, rules=rules))
    files.extend(obs_files)

    if findings:
        print(f"lint_determinism: {len(findings)} finding(s):", file=sys.stderr)
        for finding in findings:
            print(f"  {finding}", file=sys.stderr)
        print(
            "\nEach use needs fixing or a same-line waiver with a rationale:\n"
            "  // det-lint: allow(<rule>): <why this cannot affect results>",
            file=sys.stderr,
        )
        return 1
    print(f"lint_determinism: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
