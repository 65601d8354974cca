#!/usr/bin/env python3
"""Unit tests for tools/drn_lint.py itself: each rule must fire on a minimal
fixture, stay quiet on the sanctioned idiom, and the suppression machinery
must demand a known rule name. Registered as the drn_lint_selftest ctest."""

from __future__ import annotations

import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import drn_lint  # noqa: E402


class LintFixture(unittest.TestCase):
    def setUp(self) -> None:
        self._tmp = tempfile.TemporaryDirectory()
        self.repo = pathlib.Path(self._tmp.name)

    def tearDown(self) -> None:
        self._tmp.cleanup()

    def lint(self, rel: str, text: str) -> list[str]:
        path = self.repo / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return drn_lint.lint_file(path, self.repo, ast_rules=set())

    def rules(self, findings: list[str]) -> set[str]:
        return {f.split("[", 1)[1].split("]", 1)[0] for f in findings}


class SuppressionHardening(LintFixture):
    def test_named_suppression_waives_the_finding(self) -> None:
        f = self.lint(
            "src/sim/a.cpp",
            "int f() { return rand(); }  // drn-lint: allow(rand)\n",
        )
        self.assertEqual(f, [])

    def test_bare_allow_is_reported(self) -> None:
        f = self.lint(
            "src/sim/a.cpp",
            "int f() { return rand(); }  // drn-lint: allow\n",
        )
        self.assertIn("bad-suppression", self.rules(f))
        self.assertIn("rand", self.rules(f))  # and does NOT waive the rule

    def test_empty_allow_is_reported(self) -> None:
        f = self.lint(
            "src/sim/a.cpp",
            "int f() { return rand(); }  // drn-lint: allow()\n",
        )
        self.assertIn("bad-suppression", self.rules(f))
        self.assertIn("rand", self.rules(f))

    def test_unknown_rule_name_is_reported(self) -> None:
        f = self.lint(
            "src/sim/a.cpp",
            "int x = 0;  // drn-lint: allow(no-such-rule)\n",
        )
        self.assertIn("bad-suppression", self.rules(f))
        self.assertIn("no-such-rule", " ".join(f))

    def test_wrong_rule_does_not_waive_another(self) -> None:
        f = self.lint(
            "src/sim/a.cpp",
            "int f() { return rand(); }  // drn-lint: allow(float-eq)\n",
        )
        self.assertIn("rand", self.rules(f))


class RawUnitParam(LintFixture):
    HEADER = "#pragma once\n"

    def test_fires_on_suffixed_double_param_in_radio_header(self) -> None:
        f = self.lint(
            "src/radio/foo.hpp",
            self.HEADER + "void set_noise(double noise_w);\n",
        )
        self.assertIn("raw-unit-param", self.rules(f))

    def test_fires_in_analysis_header(self) -> None:
        f = self.lint(
            "src/analysis/foo.hpp",
            self.HEADER + "double wait(double slot_s, int n);\n",
        )
        self.assertIn("raw-unit-param", self.rules(f))

    def test_quiet_on_strong_type_param(self) -> None:
        f = self.lint(
            "src/radio/foo.hpp",
            self.HEADER + "void set_noise(Watts noise);\n",
        )
        self.assertEqual(f, [])

    def test_quiet_on_suffixed_function_name(self) -> None:
        # `double margin_db() const` is a sanctioned raw READ, not a param.
        f = self.lint(
            "src/radio/foo.hpp",
            self.HEADER + "[[nodiscard]] double margin_db() const;\n",
        )
        self.assertEqual(f, [])

    def test_quiet_in_units_boundary_file(self) -> None:
        f = self.lint(
            "src/radio/units.hpp",
            self.HEADER + "double from_db(double db);\n",
        )
        self.assertEqual(f, [])

    def test_quiet_outside_radio_and_analysis(self) -> None:
        f = self.lint(
            "src/sim/foo.hpp",
            self.HEADER + "void set_noise(double noise_w);\n",
        )
        self.assertEqual(f, [])

    def test_quiet_in_cpp_files(self) -> None:
        # Internal engine arithmetic stays raw double by design.
        f = self.lint(
            "src/radio/foo.cpp", "static double scale(double gain_db);\n"
        )
        self.assertEqual(f, [])


class UnorderedIter(LintFixture):
    def test_fires_on_range_for_over_declared_unordered(self) -> None:
        f = self.lint(
            "src/sim/foo.cpp",
            "std::unordered_map<int, double> acc_;\n"
            "double total() {\n"
            "  double t = 0;\n"
            "  for (const auto& [k, v] : acc_) t += v;\n"
            "  return t;\n"
            "}\n",
        )
        self.assertIn("unordered-iter", self.rules(f))

    def test_fires_on_inline_unordered_expression(self) -> None:
        f = self.lint(
            "src/radio/foo.cpp",
            "void g(std::unordered_set<int> s) {\n"
            "  for (int x : unordered_of(s)) use(x);\n"
            "}\n",
        )
        self.assertIn("unordered-iter", self.rules(f))

    def test_quiet_on_vector_iteration(self) -> None:
        f = self.lint(
            "src/sim/foo.cpp",
            "std::vector<double> acc_;\n"
            "double total() {\n"
            "  double t = 0;\n"
            "  for (double v : acc_) t += v;\n"
            "  return t;\n"
            "}\n",
        )
        self.assertEqual(f, [])

    def test_quiet_outside_sim_and_radio(self) -> None:
        f = self.lint(
            "src/analysis/foo.cpp",
            "std::unordered_map<int, int> m_;\n"
            "void f() { for (const auto& kv : m_) use(kv); }\n",
        )
        self.assertEqual(f, [])


class ManualDb(LintFixture):
    def test_fires_on_pow_ten_over_ten(self) -> None:
        f = self.lint(
            "src/core/foo.cpp",
            "double g(double db) { return std::pow(10.0, db / 10.0); }\n",
        )
        self.assertIn("manual-db", self.rules(f))

    def test_fires_on_ten_log_ten(self) -> None:
        f = self.lint(
            "bench/foo.cpp",
            "double g(double x) { return 10.0 * std::log10(x); }\n",
        )
        self.assertIn("manual-db", self.rules(f))

    def test_quiet_on_decade_pow(self) -> None:
        # pow(10, n) without /10 is a decade count, not a dB conversion.
        f = self.lint(
            "bench/foo.cpp",
            "double g(int n) { return std::pow(10.0, n); }\n",
        )
        self.assertEqual(f, [])

    def test_quiet_in_units_files(self) -> None:
        f = self.lint(
            "src/common/units.cpp",
            "double from_db(double db) { return std::pow(10.0, db / 10.0); }\n",
        )
        self.assertEqual(f, [])


class RawEventCopy(LintFixture):
    def test_fires_on_by_value_event_in_other_library_code(self) -> None:
        f = self.lint(
            "src/core/foo.cpp",
            "void f(sim::EventQueue& q) { sim::Event e = q.pop(); }\n",
        )
        self.assertIn("raw-event-copy", self.rules(f))

    def test_fires_on_unqualified_event_in_bench(self) -> None:
        f = self.lint(
            "bench/foo.cpp",
            "Event make(double t) { Event e; return e; }\n",
        )
        self.assertIn("raw-event-copy", self.rules(f))

    def test_quiet_inside_src_sim(self) -> None:
        f = self.lint(
            "src/sim/foo.cpp",
            "Event next() { Event e = queue_.pop(); return e; }\n",
        )
        self.assertEqual(f, [])

    def test_quiet_on_observer_structs_and_event_types(self) -> None:
        f = self.lint(
            "src/audit/foo.cpp",
            "void g(const sim::TxEvent tx, sim::RxEvent rx) {}\n"
            "sim::EventKind k() { sim::EventHandle h{}; return {}; }\n",
        )
        self.assertEqual(f, [])

    def test_quiet_on_event_reference(self) -> None:
        f = self.lint(
            "src/core/foo.cpp",
            "void h(const sim::Event& e);\n",
        )
        self.assertEqual(f, [])

    def test_suppression_waives(self) -> None:
        f = self.lint(
            "bench/foo.cpp",
            "sim::Event e;  // drn-lint: allow(raw-event-copy)\n",
        )
        self.assertEqual(f, [])


class LayerBoundary(LintFixture):
    def test_fires_on_radio_including_sim(self) -> None:
        f = self.lint(
            "src/radio/foo.cpp",
            '#include "sim/simulator.hpp"\n',
        )
        self.assertIn("layer-boundary", self.rules(f))

    def test_fires_on_sim_including_runner(self) -> None:
        f = self.lint(
            "src/sim/foo.cpp",
            '#include "runner/scenario.hpp"\n',
        )
        self.assertIn("layer-boundary", self.rules(f))

    def test_fires_on_sim_including_dynamics(self) -> None:
        f = self.lint(
            "src/sim/foo.cpp",
            '#include "dynamics/dynamics.hpp"\n',
        )
        self.assertIn("layer-boundary", self.rules(f))

    def test_fires_on_medium_including_mac(self) -> None:
        f = self.lint(
            "src/sim/medium.hpp",
            '#pragma once\n#include "sim/mac.hpp"\n',
        )
        self.assertIn("layer-boundary", self.rules(f))

    def test_quiet_on_other_sim_files_including_mac(self) -> None:
        # Only the medium is MAC-free; the host exists to own MACs.
        f = self.lint(
            "src/sim/station_host.hpp",
            '#pragma once\n#include "sim/mac.hpp"\n',
        )
        self.assertEqual(f, [])

    def test_quiet_on_sim_including_radio(self) -> None:
        # Downward includes are the sanctioned direction.
        f = self.lint(
            "src/sim/foo.cpp",
            '#include "radio/interference_engine.hpp"\n',
        )
        self.assertEqual(f, [])

    def test_quiet_on_dynamics_including_sim(self) -> None:
        # Drivers above the simulator include down into it freely.
        f = self.lint(
            "src/dynamics/foo.cpp",
            '#include "sim/simulator.hpp"\n',
        )
        self.assertEqual(f, [])

    def test_quiet_outside_the_library(self) -> None:
        # Tests/benches wire all layers together by design; the rule only
        # constrains src/. (bench/ is linted, so assert on it directly.)
        f = self.lint(
            "bench/foo.cpp",
            '#include "sim/simulator.hpp"\n'
            '#include "runner/scenario.hpp"\n',
        )
        self.assertEqual(f, [])

    def test_commented_out_include_is_quiet(self) -> None:
        f = self.lint(
            "src/radio/foo.cpp",
            '// #include "sim/simulator.hpp"\n',
        )
        self.assertEqual(f, [])

    def test_suppression_waives(self) -> None:
        f = self.lint(
            "src/sim/foo.cpp",
            '#include "runner/json.hpp"'
            "  // drn-lint: allow(layer-boundary)\n",
        )
        self.assertEqual(f, [])


class DenseMatrix(LintFixture):
    BUILD = "auto g = PropagationMatrix::from_placement(p, model);\n"

    def test_fires_in_library_code(self) -> None:
        f = self.lint("src/runner/a.cpp", self.BUILD)
        self.assertIn("dense-matrix", self.rules(f))

    def test_fires_in_a_cli(self) -> None:
        # A CLI must not grow its own setup next to runner::Trial.
        f = self.lint("tools/drn_new_cli.cpp", self.BUILD)
        self.assertIn("dense-matrix", self.rules(f))

    def test_quiet_in_sanctioned_radio_files(self) -> None:
        for stem in ("propagation_matrix", "interference_engine"):
            f = self.lint(f"src/radio/{stem}.cpp", self.BUILD)
            self.assertEqual(f, [], stem)

    def test_quiet_on_guarded_route_in_a_cli(self) -> None:
        f = self.lint(
            "tools/drn_new_cli.cpp",
            "auto g = radio::make_dense_gains(p, model);\n",
        )
        self.assertEqual(f, [])

    def test_quiet_in_benches(self) -> None:
        f = self.lint("bench/a.cpp", self.BUILD)
        self.assertNotIn("dense-matrix", self.rules(f))


class ReachRule(LintFixture):
    # Each fixture is split at the slash, so a grep of the tree for the
    # forbidden division finds only core/power_control.
    DIVIDE = "double g = cfg.target_received_w /" " cfg.max_power_w;\n"

    def test_fires_in_library_code(self) -> None:
        f = self.lint("src/runner/a.cpp", self.DIVIDE)
        self.assertIn("reach-rule", self.rules(f))

    def test_fires_in_benches_and_tools(self) -> None:
        for rel in ("bench/a.cpp", "tools/a.cpp"):
            f = self.lint(
                rel, "double g = target_received_w /" " max_power_w;\n"
            )
            self.assertIn("reach-rule", self.rules(f), rel)

    def test_fires_through_a_pointer(self) -> None:
        f = self.lint(
            "src/core/a.cpp",
            "double g = c->target_received_w /" " c->max_power_w;\n",
        )
        self.assertIn("reach-rule", self.rules(f))

    def test_quiet_in_power_control(self) -> None:
        for ext in ("hpp", "cpp"):
            f = self.lint(
                f"src/core/power_control.{ext}", "#pragma once\n" + self.DIVIDE
            )
            self.assertEqual(f, [], ext)

    def test_quiet_on_asking_the_rule(self) -> None:
        f = self.lint(
            "src/runner/a.cpp", "double g = cfg.power().min_gain();\n"
        )
        self.assertEqual(f, [])

    def test_quiet_on_other_arithmetic(self) -> None:
        f = self.lint(
            "src/runner/a.cpp",
            "double w = 2.5 * cfg.target_received_w;\n"
            "double x = cfg.target_received_w / gain;\n",
        )
        self.assertEqual(f, [])


class ExistingRulesStillFire(LintFixture):
    def test_std_rng(self) -> None:
        f = self.lint("src/sim/a.cpp", "std::mt19937 gen;\n")
        self.assertIn("std-rng", self.rules(f))

    def test_float_eq(self) -> None:
        f = self.lint("src/sim/a.cpp", "if (x == 1.0) {}\n")
        self.assertIn("float-eq", self.rules(f))

    def test_pragma_once(self) -> None:
        f = self.lint("src/sim/a.hpp", "int x;\n")
        self.assertIn("pragma-once", self.rules(f))


class RepoIsClean(unittest.TestCase):
    def test_lint_main_exits_zero_on_the_repo(self) -> None:
        # End-to-end: the real tree must be clean in regex mode.
        self.assertEqual(drn_lint.main(["--mode", "regex"]), 0)


if __name__ == "__main__":
    unittest.main()
