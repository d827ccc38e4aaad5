#!/usr/bin/env python3
"""Unit tests for report.py's engine-layer shares (`--layers`).

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
    # VM step that merges a vector clock: both layers
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
    # the calendar queue of older builds is the same layer
    ["acfc::sim::CalendarQueue::resize", "acfc::sim::CalendarQueue::push",
     "acfc::sim::Engine::post", ENGINE_RUN, RUN, "main"],
    # engine work in no layer
    ["malloc", "acfc::sim::Engine::dispatch", ENGINE_RUN, RUN, "main"],
    # outside the timed op
    ["acfc::mp::parse_program", "SetUp::run", "main"],
]


class LayerShares(unittest.TestCase):
    def test_every_layer_is_reported_in_order(self):
        shares = report.layer_shares(STACKS)
        self.assertEqual(list(shares),
                         [name for name, _ in report.LAYERS] + ["other"])

    def test_inclusive_shares_within_an_op(self):
        stacks = report.keep_within(STACKS, RUN)
        self.assertEqual(len(stacks), 7)
        shares = report.layer_shares(stacks)
        self.assertAlmostEqual(shares["event queue"], 2 / 7)
        self.assertAlmostEqual(shares["VM step"], 1 / 7)
        self.assertAlmostEqual(shares["vector clocks"], 1 / 7)
        self.assertAlmostEqual(shares["transport shim"], 1 / 7)
        self.assertAlmostEqual(shares["trace recording"], 1 / 7)
        self.assertAlmostEqual(shares["checkpoint capture"], 1 / 7)
        self.assertAlmostEqual(shares["other"], 1 / 7)

    def test_nested_layers_overlap_and_other_excludes_them(self):
        shares = report.layer_shares(STACKS)
        # The VM-step sample also counts as vector clocks, so the layers
        # sum past the samples they cover.
        layered = sum(v for k, v in shares.items() if k != "other")
        self.assertAlmostEqual(layered, 7 / 8)
        self.assertAlmostEqual(shares["other"], 2 / 8)
        self.assertGreater(layered + shares["other"], 1.0)

    def test_no_samples_gives_zero_shares(self):
        shares = report.layer_shares([])
        self.assertTrue(all(v == 0.0 for v in shares.values()))

    def test_layer_report_prints_the_table(self):
        out = io.StringIO()
        report.layer_report(STACKS, within=ENGINE_RUN, out=out)
        text = out.getvalue()
        self.assertIn("samples: 7 within 'acfc::sim::Engine::run'", text)
        self.assertIn("   28.6  event queue", text)
        self.assertIn("   14.3  other", text)


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
