#!/usr/bin/env python3
"""Self-test of acs_lint.py: every rule has a pass/trip fixture pair under
tools/lint/fixtures/; each pass fixture must come back clean and each trip
fixture must produce findings of exactly the expected rule. Run directly or
via ctest (lint_selftest)."""

from __future__ import annotations

import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
LINT = HERE / "acs_lint.py"
FIXTURES = HERE / "fixtures"


def run_lint(*args: str) -> tuple[int, str, str]:
    proc = subprocess.run([sys.executable, str(LINT), *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def rules_in(stdout: str) -> set[str]:
    return set(re.findall(r"\[([a-z-]+)\]", stdout))


class FixturePairs(unittest.TestCase):
    """One pass/trip pair per rule. Trip cases additionally pin the finding
    count, so a rule that silently stops matching half its cases fails."""

    def check_pass(self, rule: str, fixture: str, *extra: str) -> None:
        code, out, err = run_lint(str(FIXTURES / fixture), "--rules", rule,
                                  *extra)
        self.assertEqual(code, 0, f"{fixture} should be clean:\n{out}{err}")
        self.assertEqual(out.strip(), "")

    def check_trip(self, rule: str, fixture: str, expect_findings: int,
                   *extra: str) -> None:
        code, out, err = run_lint(str(FIXTURES / fixture), "--rules", rule,
                                  *extra)
        self.assertEqual(code, 1, f"{fixture} should trip:\n{out}{err}")
        self.assertEqual(rules_in(out), {rule})
        self.assertEqual(len(out.strip().splitlines()), expect_findings, out)

    def test_mo_justify_pass(self):
        self.check_pass("mo-justify", "mo_pass.cpp")

    def test_mo_justify_trip(self):
        self.check_trip("mo-justify", "mo_trip.cpp", 3)

    def test_trace_span_pass(self):
        self.check_pass("trace-span-paired", "trace_pass.cpp")

    def test_trace_span_trip(self):
        self.check_trip("trace-span-paired", "trace_trip.cpp", 1)

    def test_typed_indices_pass(self):
        self.check_pass("typed-indices", "typed_pass.hpp")

    def test_typed_indices_trip(self):
        self.check_trip("typed-indices", "typed_trip.hpp", 4)

    def test_banned_calls_pass(self):
        self.check_pass("banned-calls", "banned_pass.cpp")

    def test_banned_calls_trip(self):
        self.check_trip("banned-calls", "banned_trip.cpp", 3)

    def test_self_sufficient_pass(self):
        self.check_pass("self-sufficient", "self_pass.hpp")

    def test_self_sufficient_trip(self):
        self.check_trip("self-sufficient", "self_trip.hpp", 1)

    def test_mutex_annotated_pass(self):
        self.check_pass("mutex-annotated", "mutex_pass.cpp")

    def test_mutex_annotated_trip(self):
        self.check_trip("mutex-annotated", "mutex_trip.cpp", 3)

    def test_raii_locks_only_pass(self):
        self.check_pass("raii-locks-only", "raii_pass.cpp")

    def test_raii_locks_only_trip(self):
        self.check_trip("raii-locks-only", "raii_trip.cpp", 3)

    def test_lock_order_pass(self):
        self.check_pass("lock-order", "lockorder_pass.cpp",
                        "--lock-order-config",
                        str(FIXTURES / "lockorder_pass.toml"))

    def test_lock_order_trip(self):
        # One inversion, the cycle it closes, one unranked mutex, one stale
        # registry entry.
        self.check_trip("lock-order", "lockorder_trip.cpp", 4,
                        "--lock-order-config",
                        str(FIXTURES / "lockorder_trip.toml"))


class CliContract(unittest.TestCase):
    def test_list_rules_names_at_least_five(self):
        code, out, _ = run_lint("--list-rules")
        self.assertEqual(code, 0)
        self.assertGreaterEqual(len(out.split()), 5)

    def test_unknown_rule_is_a_usage_error(self):
        code, _, err = run_lint("--rules", "no-such-rule")
        self.assertEqual(code, 2)
        self.assertIn("unknown rule", err)

    def test_missing_path_is_a_usage_error(self):
        code, _, _ = run_lint(str(FIXTURES / "does_not_exist.cpp"))
        self.assertEqual(code, 2)


class RepoGate(unittest.TestCase):
    """The repo itself must stay clean under the text rules (the compile-
    backed self-sufficient rule runs in CI's lint job, not here, to keep
    the selftest fast)."""

    def test_src_clean_under_text_rules(self):
        code, out, err = run_lint(
            str(REPO / "src"), "--rules",
            "mo-justify,trace-span-paired,typed-indices,banned-calls,"
            "mutex-annotated,raii-locks-only")
        self.assertEqual(code, 0, f"src/ must lint clean:\n{out}{err}")

    def test_src_lock_order_clean(self):
        code, out, err = run_lint(str(REPO / "src"), "--rules", "lock-order")
        self.assertEqual(code, 0, f"src/ lock order must be clean:\n{out}{err}")

    def test_lock_order_sees_the_real_graph(self):
        """An inverted registry must trip on the repo's own nesting edges —
        proves the whole-project pass is not vacuously clean."""
        import tempfile
        base = (HERE / "lock_order.toml").read_text()
        with tempfile.NamedTemporaryFile("w", suffix=".toml",
                                         delete=False) as fh:
            fh.write(base.replace('"Server::m_" = 10',
                                  '"Server::m_" = 45'))
            tmp = fh.name
        try:
            code, out, _ = run_lint(str(REPO / "src"), "--rules",
                                    "lock-order", "--lock-order-config", tmp)
            self.assertEqual(code, 1, "inverted ranks must trip")
            self.assertIn("Server::m_", out)
        finally:
            Path(tmp).unlink()


if __name__ == "__main__":
    unittest.main(verbosity=2)
