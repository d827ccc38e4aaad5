#!/usr/bin/env python3
"""Unit tests for report.py's engine and analysis layer shares (`--layers`).

Run directly (`python3 tools/sample_profile/test_report.py`) or from ctest
as `sample_profile_unit`. Pure stdlib unittest over hand-made symbolized
stacks (leaf first, inlined functions spliced in innermost first), so no
sampled binary is needed.
"""

import io
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import report  # noqa: E402

RUN = "RunOp::run"
ENGINE_RUN = "acfc::sim::Engine::run"

STACKS = [
    # event queue: a heap sift inlined into Engine::run
    ["std::vector<acfc::sim::Ev>::operator[]", "acfc::sim::EventQueue::pop",
     ENGINE_RUN, RUN, "main"],
    # VM step that merges a vector clock (older builds): both layers
    ["acfc::trace::VClock::merge", "acfc::sim::Vm::merge_clock",
     "acfc::sim::Engine::deliver", ENGINE_RUN, RUN, "main"],
    # trace recording through an inlined note()
    ["std::vector<acfc::trace::EventRec>::emplace_back",
     "acfc::sim::Engine::note", "acfc::sim::Engine::advance", ENGINE_RUN, RUN,
     "main"],
    # transport shim, twice matched in one stack: counted once
    ["acfc::sim::SeqRing<long>::insert", "acfc::sim::Engine::xport_send",
     "acfc::sim::Engine::post", ENGINE_RUN, RUN, "main"],
    # checkpoint capture into the store
    ["acfc::store::StableStore::write_payload",
     "acfc::sim::store_capture_fn", "acfc::sim::Engine::take_checkpoint",
     ENGINE_RUN, RUN, "main"],
    # the explorer hook inside a take is not capture work
    ["acfc::explore::PlanHook::choose",
     "acfc::sim::Engine::offer_failure_point",
     "acfc::sim::Engine::take_checkpoint", ENGINE_RUN, RUN, "main"],
    # the calendar queue of older builds is the same layer
    ["acfc::sim::CalendarQueue::resize", "acfc::sim::CalendarQueue::push",
     "acfc::sim::Engine::post", ENGINE_RUN, RUN, "main"],
    # the heap allocator under engine work in no other layer
    ["malloc", "acfc::sim::Engine::dispatch", ENGINE_RUN, RUN, "main"],
    # engine work in no layer
    ["acfc::sim::Engine::dispatch", ENGINE_RUN, RUN, "main"],
    # outside the timed op
    ["acfc::mp::parse_program", "SetUp::run", "main"],
]

ANALYZE = "AnalyzeOp::run"

ANALYSIS_STACKS = [
    # the parser's anonymous-namespace classes under mp::parse
    ["std::__cxx11::basic_string<char>::_M_create",
     "acfc::mp::(anonymous namespace)::Lexer::next",
     "acfc::mp::(anonymous namespace)::Parser::statement",
     "acfc::mp::parse", ANALYZE, "main"],
    ["acfc::cfg::Cfg::analyze", "acfc::cfg::build_cfg", ANALYZE, "main"],
    # the attribute solver inside the Ĝ build: both layers
    ["acfc::attr::(anonymous namespace)::Solver::eval",
     "acfc::attr::SatCache::find_match",
     "acfc::match::build_extended_cfg", ANALYZE, "main"],
    ["acfc::place::check_condition1", ANALYZE, "main"],
    # the repair's own Condition-1 check: both layers
    ["acfc::place::check_condition1",
     "acfc::place::repair_placement", ANALYZE, "main"],
    ["acfc::mp::(anonymous namespace)::Printer::stmt", "acfc::mp::print",
     ANALYZE, "main"],
    # analysis work in no layer
    ["acfc::place::insert_checkpoints", ANALYZE, "main"],
]


class LayerShares(unittest.TestCase):
    def test_every_layer_is_reported_in_order(self):
        shares = report.layer_shares(STACKS)
        self.assertEqual(list(shares),
                         [name for name, _ in report.LAYERS] + ["other"])

    def test_inclusive_shares_within_an_op(self):
        stacks = report.keep_within(STACKS, RUN)
        self.assertEqual(len(stacks), 9)
        shares = report.layer_shares(stacks)
        self.assertAlmostEqual(shares["event queue"], 2 / 9)
        self.assertAlmostEqual(shares["VM step"], 1 / 9)
        self.assertAlmostEqual(shares["vector clocks"], 1 / 9)
        self.assertAlmostEqual(shares["transport shim"], 1 / 9)
        self.assertAlmostEqual(shares["trace recording"], 1 / 9)
        self.assertAlmostEqual(shares["checkpoint capture"], 1 / 9)
        self.assertAlmostEqual(shares["heap allocator"], 1 / 9)
        self.assertAlmostEqual(shares["other"], 2 / 9)

    def test_explorer_hook_inside_a_take_is_not_capture(self):
        hook = [s for s in STACKS if "acfc::sim::Engine::offer_failure_point" in s]
        self.assertEqual(len(hook), 1)
        shares = report.layer_shares(hook)
        self.assertEqual(shares["checkpoint capture"], 0.0)
        self.assertEqual(shares["other"], 1.0)

    def test_capture_counts_image_copies_not_vm_teardown(self):
        copy = ["malloc", "acfc::sim::VmSnapshot::VmSnapshot",
                "std::make_shared<acfc::sim::VmSnapshot const, "
                "acfc::sim::VmSnapshot const&>",
                "acfc::sim::Engine::take_checkpoint", ENGINE_RUN]
        hook = ["std::function<void (int, acfc::sim::VmSnapshot const&)>"
                "::operator()", "acfc::sim::Engine::take_checkpoint",
                ENGINE_RUN]
        teardown = ["__libc_free", "acfc::sim::VmSnapshot::~VmSnapshot",
                    "acfc::sim::Vm::~Vm", "acfc::sim::Engine::~Engine"]
        shares = report.layer_shares([copy, hook, teardown])
        self.assertAlmostEqual(shares["checkpoint capture"], 2 / 3)
        self.assertEqual(
            report.layer_shares([teardown])["checkpoint capture"], 0.0)

    def test_heap_allocator_counts_libc_internals_through_callers(self):
        # Stripped libc: _int_malloc / _int_free symbolize as an exported
        # neighbour; the malloc or free frame above them places the sample.
        grow = ["__default_morecore", "malloc", "operator new",
                "std::vector<acfc::trace::EventRec>::reserve",
                "acfc::sim::Engine::rearm", RUN]
        release = ["__default_morecore", "__libc_free", "operator delete",
                   "acfc::sim::Engine::~Engine", RUN]
        sized = ["operator delete", "acfc::sim::SimResult::~SimResult", RUN]
        neighbour_alone = ["__default_morecore", "acfc::sim::Engine::run", RUN]
        shares = report.layer_shares([grow, release, sized, neighbour_alone])
        self.assertAlmostEqual(shares["heap allocator"], 3 / 4)
        self.assertAlmostEqual(shares["other"], 1 / 4)
        # Allocation inside another layer counts toward both.
        vm = ["malloc", "acfc::sim::Vm::next", ENGINE_RUN]
        both = report.layer_shares([vm])
        self.assertEqual(both["heap allocator"], 1.0)
        self.assertEqual(both["VM step"], 1.0)

    def test_nested_layers_overlap_and_other_excludes_them(self):
        shares = report.layer_shares(STACKS)
        # The VM-step sample also counts as vector clocks, so the layers
        # sum past the samples they cover; the set-up parse counts too.
        layered = sum(v for k, v in shares.items() if k != "other")
        self.assertAlmostEqual(layered, 9 / 10)
        self.assertAlmostEqual(shares["other"], 2 / 10)
        self.assertGreater(layered + shares["other"], 1.0)

    def test_analysis_layers(self):
        shares = report.layer_shares(ANALYSIS_STACKS)
        n = len(ANALYSIS_STACKS)
        self.assertAlmostEqual(shares["parse"], 1 / n)
        self.assertAlmostEqual(shares["CFG"], 1 / n)
        self.assertAlmostEqual(shares["Ĝ/match"], 1 / n)
        self.assertAlmostEqual(shares["attribute solver"], 1 / n)
        self.assertAlmostEqual(shares["Condition 1"], 2 / n)
        self.assertAlmostEqual(shares["repair"], 1 / n)
        self.assertAlmostEqual(shares["print"], 1 / n)
        self.assertAlmostEqual(shares["heap allocator"], 0.0)
        self.assertAlmostEqual(shares["other"], 1 / n)
        for engine_layer in ("VM step", "vector clocks", "event queue"):
            self.assertEqual(shares[engine_layer], 0.0)

    def test_analysis_layers_leave_engine_stacks_alone(self):
        engine = report.layer_shares(report.keep_within(STACKS, RUN))
        for layer in ("parse", "CFG", "Ĝ/match", "attribute solver",
                      "Condition 1", "repair", "print"):
            self.assertEqual(engine[layer], 0.0)

    def test_no_samples_gives_zero_shares(self):
        shares = report.layer_shares([])
        self.assertTrue(all(v == 0.0 for v in shares.values()))

    def test_layer_report_prints_the_table(self):
        out = io.StringIO()
        report.layer_report(STACKS, within=ENGINE_RUN, out=out)
        text = out.getvalue()
        self.assertIn("samples: 9 within 'acfc::sim::Engine::run'", text)
        self.assertIn("   22.2  event queue", text)
        self.assertIn("   11.1  heap allocator", text)
        self.assertIn("   22.2  other", text)


class Addr2lineParsing(unittest.TestCase):
    def test_inline_chains_innermost_first(self):
        lines = [
            "0x0000000000059ed0",
            "std::vector<acfc::sim::Ev>::back()",
            "/usr/include/c++/12/bits/stl_vector.h:1231",
            "acfc::sim::EventQueue::pop()",
            "src/sim/event.h:87",
            "acfc::sim::Engine::next_event()",
            "src/sim/engine.cpp:219",
            "0x0000000000001000",
            "??",
            "??:0",
            "0x0000000000059eb0",
            "acfc::sim::Engine::next_event()",
            "src/sim/engine.cpp:218",
        ]
        self.assertEqual(report.parse_addr2line(lines), [
            ["std::vector<acfc::sim::Ev>::back()", "acfc::sim::EventQueue::pop()",
             "acfc::sim::Engine::next_event()"],
            ["??"],
            ["acfc::sim::Engine::next_event()"],
        ])


class Symbolize(unittest.TestCase):
    def test_unmapped_addresses_stay_whole_names(self):
        # No mapping covers these addresses, so addr2line never runs; each
        # frame is its address (a return address looked up at the call).
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "sample_profile.1.txt")
            with open(path, "w") as f:
                f.write("stack 1234 5678\n")
            for inlines in (False, True):
                self.assertEqual(report.symbolize([path], inlines=inlines),
                                 [["0x1234", "0x5677"]])


if __name__ == "__main__":
    unittest.main()
