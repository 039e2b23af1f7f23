#!/usr/bin/env python3
"""Repo-invariant linter for ltswave.

Enforces the conventions that keep the codebase honest and that neither the
compiler nor clang-tidy can check:

  1. real_t discipline — simulation/field arithmetic uses ltswave::real_t
     (src/common/types.hpp) so the precision of the whole solver is one
     typedef. Raw `double`/`float` in src/ is only allowed in files on the
     justified allowlist below (wall-clock timing, machine models, report
     formatting — measurements, never field data) and in the two exempt
     files that define the type / the order-specialized kernels.
     Unused allowlist entries fail the lint so the list cannot rot.

  2. lock discipline — concurrency in src/ goes through the annotated
     wrappers in src/common/annotations.hpp (ltswave::Mutex, LockGuard,
     UniqueLock, CondVar) so clang's -Wthread-safety sees every acquisition.
     Naked std::mutex / std::lock_guard / std::condition_variable etc.
     outside annotations.hpp fail.

  3. test registration — every tests/*.cpp must match the test_*.cpp glob
     that CMakeLists.txt registers with ctest (a stray name silently never
     runs), must contain at least one TEST()/TEST_F(), and every name in
     the CMake label lists (LTSWAVE_*_TESTS) must exist on disk.

  4. config-key documentation — every SimulationConfig / scenario override
     key dispatched in src/core/simulation.cpp and src/scenarios/scenario.cpp
     (the `key == "..."` literals) must be documented in docs/scenarios.md.
     Underscore spellings count as documented when the dash spelling is.

  5. intrinsics discipline — src/common/simd.hpp is the one portability
     seam: architecture #ifdefs (__AVX512F__/__AVX2__/__ARM_NEON/__SSE2__),
     intrinsics headers (immintrin.h/arm_neon.h) and _mm*_ intrinsic calls
     anywhere else in src/ fail, so kernel and solver code stays written
     against simd::Vec only.

Usage:
  tools/lint_ltswave.py [--root DIR]   lint the repo (exit 1 on violations)
  tools/lint_ltswave.py --self-test    verify each check fires on seeded
                                       violations in a temp fixture tree
"""

from __future__ import annotations

import argparse
import re
import sys
import tempfile
from pathlib import Path

# --- check 1: real_t discipline -------------------------------------------

# Files that define the discipline rather than follow it.
REAL_T_EXEMPT = {
    "src/common/types.hpp",  # defines real_t itself
    "src/common/simd.hpp",   # width-specialized Vec<double, W>: precision-explicit by design
    "src/sem/kernels.hpp",   # order-specialized kernels: precision-explicit by design
    "src/sem/kernels.cpp",
}

# Files allowed to use raw double/float, each with the reason. Every entry
# must actually be needed (file exists and uses double/float in code) or the
# lint fails — the allowlist is a budget, not a graveyard.
DOUBLE_ALLOWLIST = {
    # Wall-clock timing, counters and derived statistics are measurements of
    # the machine, not simulation state; they stay 64-bit regardless of the
    # real_t precision the fields are built with.
    "src/common/timer.hpp": "wall-clock timer",
    "src/common/rng.hpp": "uniform_real() utility for seeds/jitter, not field data",
    "src/common/rng.cpp": "uniform_real() implementation",
    "src/core/newmark.hpp": "per-phase wall-clock accumulators",
    "src/runtime/thread_pool.hpp": "watchdog timeout seconds",
    "src/runtime/thread_pool.cpp": "watchdog timeout seconds",
    "src/runtime/scheduler.hpp": "watchdog timeout config",
    "src/runtime/threaded_lts.hpp": "busy/stall/phase wall-clock counters",
    "src/runtime/threaded_lts.cpp": "busy/stall/phase wall-clock counters",
    "src/resilience/fault.hpp": "injected stall duration in wall milliseconds",
    "src/resilience/supervisor.cpp": "retry backoff in wall milliseconds",
    "src/resilience/health_guard.hpp": "field-norm statistics for blowup detection",
    "src/resilience/health_guard.cpp": "field-norm statistics for blowup detection",
    "src/resilience/recovery.hpp": "backoff milliseconds in the recovery policy",
    # The performance model and its reports describe hardware (bandwidths,
    # latencies, imbalance percentages) — double by nature.
    "src/runtime/machine.hpp": "machine model: bandwidths/latencies/bytes",
    "src/runtime/sim_cluster.hpp": "simulated timeline seconds",
    "src/runtime/sim_cluster.cpp": "simulated timeline seconds",
    "src/perf/calibrate.hpp": "measured machine constants",
    "src/perf/calibrate.cpp": "measured machine constants",
    "src/perf/roofline.hpp": "roofline flop/byte accounting",
    "src/perf/roofline.cpp": "roofline flop/byte accounting",
    "src/perf/run_report.hpp": "run report: wall seconds and rates",
    "src/perf/run_report.cpp": "run report: wall seconds and rates",
    "src/perf/scaling.hpp": "speedup-model evaluation",
    "src/perf/scaling.cpp": "speedup-model evaluation",
    "src/partition/partition.hpp": "imbalance percentages (Eq. 21 metrics)",
    "src/partition/partition.cpp": "imbalance percentages (Eq. 21 metrics)",
    "src/partition/partitioners.hpp": "imbalance tolerance epsilon",
    "src/partition/multilevel.hpp": "bisection imbalance epsilon",
    "src/partition/multilevel.cpp": "gain/balance arithmetic on weights",
    "src/partition/hg_multilevel.hpp": "hypergraph imbalance epsilon",
    "src/partition/hg_multilevel.cpp": "gain/balance arithmetic on weights",
    "src/partition/feedback.hpp": "measured busy/stall seconds fed back",
    "src/partition/feedback.cpp": "measured busy/stall seconds fed back",
    "src/core/lts_levels.hpp": "level census ratios / theoretical speedup",
    "src/core/lts_levels.cpp": "level census ratios / theoretical speedup",
    "src/core/executor.hpp": "executor-facade perf counters",
    "src/core/executor.cpp": "executor-facade perf counters",
    "src/core/simulation.hpp": "facade re-exports of perf counters",
    "src/scenarios/scenario.cpp": "CLI parsing of wall-clock/ratio overrides",
    # Report/output formatting takes doubles because that is what the
    # counters above produce.
    "src/common/table.hpp": "table formatting of measurements",
    "src/common/table.cpp": "table formatting of measurements",
    "src/common/csv.hpp": "CSV export of measurements",
    "src/common/csv.cpp": "CSV export of measurements",
    "src/sem/sem_space.cpp": "cbrt() mesh-size estimate for a reserve() hint",
}

WORD_RE = re.compile(r"\b(double|float)\b")

SYNC_RE = re.compile(
    r"std::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|shared_mutex"
    r"|shared_timed_mutex|lock_guard|scoped_lock|unique_lock|shared_lock"
    r"|condition_variable|condition_variable_any)\b"
)
SYNC_EXEMPT = {"src/common/annotations.hpp"}

INTRINSICS_RE = re.compile(
    r"immintrin\.h|arm_neon\.h|__AVX512F__|__AVX2__|__ARM_NEON|__SSE2__|_mm\d*_\w+"
)
INTRINSICS_EXEMPT = {"src/common/simd.hpp"}

KEY_RE = re.compile(r'key\s*==\s*"([^"]+)"')
KEY_DISPATCH_FILES = ["src/core/simulation.cpp", "src/scenarios/scenario.cpp"]

TEST_LIST_RE = re.compile(r"set\(\s*(LTSWAVE_\w+_TESTS)\s+([^)]*)\)")


def strip_code(text: str) -> str:
    """Remove comments, string and char literals from C++ source, keeping
    newlines so line numbers survive."""
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
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i = min(i + 2, n)
        elif c == '"' or c == "'":
            quote = c
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


def code_lines(path: Path):
    return enumerate(strip_code(path.read_text(encoding="utf-8")).splitlines(), 1)


def src_files(root: Path):
    return sorted(
        p for ext in ("*.hpp", "*.cpp") for p in (root / "src").rglob(ext)
    )


def check_real_t(root: Path, allowlist=None, exempt=None) -> list[str]:
    allowlist = DOUBLE_ALLOWLIST if allowlist is None else allowlist
    exempt = REAL_T_EXEMPT if exempt is None else exempt
    violations, used = [], set()
    for path in src_files(root):
        rel = path.relative_to(root).as_posix()
        if rel in exempt:
            continue
        hits = [(ln, m.group(1)) for ln, line in code_lines(path) for m in WORD_RE.finditer(line)]
        if not hits:
            continue
        if rel in allowlist:
            used.add(rel)
            continue
        ln, word = hits[0]
        violations.append(
            f"{rel}:{ln}: raw `{word}` outside the allowlist ({len(hits)} use(s)) — "
            f"field/simulation data must use real_t (src/common/types.hpp); "
            f"wall-clock or model quantities need an allowlist entry in "
            f"tools/lint_ltswave.py with a justification"
        )
    for rel in sorted(set(allowlist) - used):
        violations.append(
            f"tools/lint_ltswave.py: allowlist entry '{rel}' is unused "
            f"(file missing or no raw double/float left) — remove it"
        )
    return violations


def check_sync_primitives(root: Path) -> list[str]:
    violations = []
    for path in src_files(root):
        rel = path.relative_to(root).as_posix()
        if rel in SYNC_EXEMPT:
            continue
        for ln, line in code_lines(path):
            m = SYNC_RE.search(line)
            if m:
                violations.append(
                    f"{rel}:{ln}: naked std::{m.group(1)} — use the annotated wrappers in "
                    f"src/common/annotations.hpp (ltswave::Mutex/LockGuard/UniqueLock/CondVar) "
                    f"so clang -Wthread-safety sees the acquisition"
                )
    return violations


def check_test_registration(root: Path) -> list[str]:
    violations = []
    cmake = root / "CMakeLists.txt"
    cmake_text = cmake.read_text(encoding="utf-8") if cmake.exists() else ""
    if "tests/test_*.cpp" not in cmake_text:
        violations.append(
            "CMakeLists.txt: the tests/test_*.cpp registration glob is gone — "
            "tests are no longer added to ctest"
        )
    tests_dir = root / "tests"
    test_files = sorted(tests_dir.glob("*.cpp")) if tests_dir.is_dir() else []
    for path in test_files:
        rel = path.relative_to(root).as_posix()
        if not path.name.startswith("test_"):
            violations.append(
                f"{rel}: does not match the CMakeLists tests/test_*.cpp glob — "
                f"it is never built or run; rename it test_<name>.cpp"
            )
            continue
        text = path.read_text(encoding="utf-8")
        if not re.search(r"\bTEST(_F|_P)?\s*\(", text):
            violations.append(f"{rel}: contains no TEST()/TEST_F() — registered but empty")
    on_disk = {p.stem for p in test_files}
    for m in TEST_LIST_RE.finditer(cmake_text):
        for name in m.group(2).split():
            if name.startswith("test_") and name not in on_disk:
                violations.append(
                    f"CMakeLists.txt: {m.group(1)} lists '{name}' but tests/{name}.cpp "
                    f"does not exist — stale label entry"
                )
    return violations


def check_config_keys(root: Path) -> list[str]:
    violations = []
    docs = root / "docs" / "scenarios.md"
    docs_text = docs.read_text(encoding="utf-8") if docs.exists() else ""
    documented = set(re.findall(r"`([^`\s]+)`", docs_text))
    for rel in KEY_DISPATCH_FILES:
        path = root / rel
        if not path.exists():
            continue
        stripped_lines = dict(code_lines(path))
        # Re-scan the original text: the literals live inside strings, which
        # strip_code removes — so scan raw lines but only where the stripped
        # line still contains the `key ==` comparison (i.e. real dispatch
        # code, not a comment mentioning one).
        for ln, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if "key" not in stripped_lines.get(ln, ""):
                continue
            for m in KEY_RE.finditer(raw):
                key = m.group(1)
                if key in documented or key.replace("_", "-") in documented:
                    continue
                violations.append(
                    f"{rel}:{ln}: config key \"{key}\" is dispatched here but not "
                    f"documented in docs/scenarios.md — add it to the key table"
                )
    return violations


def check_intrinsics(root: Path) -> list[str]:
    violations = []
    for path in src_files(root):
        rel = path.relative_to(root).as_posix()
        if rel in INTRINSICS_EXEMPT:
            continue
        for ln, line in code_lines(path):
            m = INTRINSICS_RE.search(line)
            if m:
                violations.append(
                    f"{rel}:{ln}: architecture-specific token `{m.group(0)}` outside "
                    f"src/common/simd.hpp — the SIMD layer is the only portability "
                    f"seam; write against simd::Vec instead"
                )
    return violations


CHECKS = [
    ("real_t discipline", check_real_t),
    ("lock discipline", check_sync_primitives),
    ("test registration", check_test_registration),
    ("config-key documentation", check_config_keys),
    ("intrinsics discipline", check_intrinsics),
]


def run_lint(root: Path) -> int:
    total = 0
    for name, check in CHECKS:
        violations = check(root)
        for v in violations:
            print(f"lint[{name}]: {v}")
        total += len(violations)
    if total:
        print(f"\nlint_ltswave: {total} violation(s)")
        return 1
    print(f"lint_ltswave: OK ({len(CHECKS)} checks clean)")
    return 0


# --- self-test -------------------------------------------------------------

def _write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def self_test() -> int:
    """Build a fixture tree seeded with one violation per check and assert
    every check fires (and that clean fixtures stay clean)."""
    failures = []

    def expect(label, violations, substr):
        if not any(substr in v for v in violations):
            failures.append(f"{label}: expected a violation matching {substr!r}, "
                            f"got {violations!r}")

    def expect_clean(label, violations):
        if violations:
            failures.append(f"{label}: expected no violations, got {violations!r}")

    with tempfile.TemporaryDirectory(prefix="lint_selftest_") as tmp:
        root = Path(tmp)
        # Clean skeleton.
        _write(root, "src/common/types.hpp", "using real_t = double;\n")
        _write(root, "src/core/clean.cpp", "int f() { return 1; } // a double agent\n")
        _write(root, "CMakeLists.txt",
               "file(GLOB T tests/test_*.cpp)\n"
               "set(LTSWAVE_UNIT_TESTS test_ok)\n")
        _write(root, "tests/test_ok.cpp", 'TEST(Ok, Works) {}\n')
        _write(root, "docs/scenarios.md", "| `order` | int | SEM order |\n")
        _write(root, "src/core/simulation.cpp",
               'bool f(S s, K key) { if (key == "order") return true; return false; }\n')
        _write(root, "src/scenarios/scenario.cpp", "// no keys here\n")
        expect_clean("clean real_t", check_real_t(root, allowlist={}, exempt={"src/common/types.hpp"}))
        expect_clean("clean locks", check_sync_primitives(root))
        expect_clean("clean tests", check_test_registration(root))
        expect_clean("clean keys", check_config_keys(root))
        expect_clean("clean intrinsics", check_intrinsics(root))

        # 1. real_t: a raw double in code (comments/strings must NOT count).
        _write(root, "src/core/bad_double.cpp", "double leak() { return 0.5; }\n")
        expect("real_t", check_real_t(root, allowlist={}, exempt={"src/common/types.hpp"}),
               "raw `double` outside the allowlist")
        # ... and an unused allowlist entry.
        expect("real_t-unused",
               check_real_t(root, allowlist={"src/ghost.cpp": "gone"},
                            exempt={"src/common/types.hpp", "src/core/bad_double.cpp"}),
               "allowlist entry 'src/ghost.cpp' is unused")
        # ... but the comment-only mention stays clean under an allowlist
        # covering the seeded file.
        expect_clean("real_t-comment",
                     check_real_t(root, allowlist={"src/core/bad_double.cpp": "fixture"},
                                  exempt={"src/common/types.hpp"}))

        # 2. locks: a naked std::mutex outside annotations.hpp.
        _write(root, "src/core/bad_mutex.cpp", "#include <mutex>\nstd::mutex mu;\n")
        expect("locks", check_sync_primitives(root), "naked std::mutex")
        (root / "src/core/bad_mutex.cpp").unlink()
        # ... annotations.hpp itself is exempt.
        _write(root, "src/common/annotations.hpp", "std::mutex raw_;\n")
        expect_clean("locks-exempt", check_sync_primitives(root))

        # 3. tests: a stray tests/*.cpp the glob misses, an empty test file,
        # and a stale label-list entry.
        _write(root, "tests/stray.cpp", "TEST(Stray, NeverRuns) {}\n")
        expect("tests-stray", check_test_registration(root),
               "does not match the CMakeLists tests/test_*.cpp glob")
        (root / "tests/stray.cpp").unlink()
        _write(root, "tests/test_empty.cpp", "// TODO\n")
        expect("tests-empty", check_test_registration(root), "contains no TEST()")
        (root / "tests/test_empty.cpp").unlink()
        _write(root, "CMakeLists.txt",
               "file(GLOB T tests/test_*.cpp)\n"
               "set(LTSWAVE_UNIT_TESTS test_ok test_vanished)\n")
        expect("tests-stale", check_test_registration(root), "stale label entry")

        # 4. keys: an undocumented dispatch key fires; an underscore alias of
        # a documented dash key does not.
        _write(root, "src/core/simulation.cpp",
               'bool f(S s, K key) {\n'
               '  if (key == "order") return true;\n'
               '  if (key == "mystery-knob") return true;\n'
               '  // a comment saying key == "not-a-key" must not count\n'
               '  return false;\n}\n')
        keys = check_config_keys(root)
        expect("keys", keys, 'config key "mystery-knob"')
        if any("not-a-key" in v for v in keys):
            failures.append(f"keys-comment: comment-only key was flagged: {keys!r}")
        _write(root, "docs/scenarios.md", "| `max-retries` | int | budget |\n")
        _write(root, "src/core/simulation.cpp",
               'bool f(S s, K key) { return key == "max_retries"; }\n')
        expect_clean("keys-alias", check_config_keys(root))

        # 5. intrinsics: an arch #ifdef / intrinsic call outside simd.hpp
        # fires; simd.hpp itself is exempt; comment mentions must not count.
        _write(root, "src/sem/bad_simd.cpp",
               "#ifdef __AVX512F__\nvoid f() { _mm512_setzero_pd(); }\n#endif\n")
        expect("intrinsics", check_intrinsics(root),
               "architecture-specific token `__AVX512F__`")
        (root / "src/sem/bad_simd.cpp").unlink()
        _write(root, "src/common/simd.hpp",
               "#include <immintrin.h>\n// __AVX512F__ dispatch lives here\n")
        _write(root, "src/core/comment_only.cpp",
               "// see simd.hpp for the __AVX512F__ dispatch\nint g();\n")
        expect_clean("intrinsics-exempt", check_intrinsics(root))

    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}")
        return 1
    print("lint_ltswave: self-test OK (all checks fire on seeded violations)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent,
                    help="repo root to lint (default: the checkout containing this script)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the checks fire on seeded violations, then exit")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    return run_lint(args.root)


if __name__ == "__main__":
    sys.exit(main())
