// Unit tests for the ASCII space-time renderer.
#include <gtest/gtest.h>

#include "mp/parser.h"
#include "sim/engine.h"
#include "trace/render.h"
#include "util/error.h"

namespace {

using namespace acfc;

trace::Trace run() {
  // Spread the events in time so that each lands in its own diagram
  // column at the default width.
  const mp::Program p = mp::parse(R"(
    program r {
      compute 2.0;
      checkpoint;
      compute 2.0;
      if (rank == 0) { send to 1 tag 1; } else { recv from 0 tag 1; }
      compute 2.0;
    })");
  return sim::simulate(p, 2).trace;
}

TEST(Render, OneRowPerProcess) {
  const auto t = run();
  const std::string art = trace::render_spacetime(t);
  EXPECT_NE(art.find("P0"), std::string::npos);
  EXPECT_NE(art.find("P1"), std::string::npos);
}

TEST(Render, MarksEventKinds) {
  const auto t = run();
  trace::RenderOptions opts;
  opts.legend = false;
  const std::string art = trace::render_spacetime(t, opts);
  EXPECT_NE(art.find('C'), std::string::npos);  // checkpoint
  EXPECT_NE(art.find('s'), std::string::npos);  // send
  EXPECT_NE(art.find('r'), std::string::npos);  // recv
  EXPECT_NE(art.find('|'), std::string::npos);  // finish
}

TEST(Render, LegendToggle) {
  const auto t = run();
  trace::RenderOptions with, without;
  without.legend = false;
  EXPECT_NE(trace::render_spacetime(t, with).find("C=checkpoint"),
            std::string::npos);
  EXPECT_EQ(trace::render_spacetime(t, without).find("C=checkpoint"),
            std::string::npos);
}

TEST(Render, RespectsWidth) {
  const auto t = run();
  trace::RenderOptions opts;
  opts.width = 40;
  opts.legend = false;
  const std::string art = trace::render_spacetime(t, opts);
  // Each row: "Pk  " prefix (4 chars) + width + newline.
  const auto first_newline = art.find('\n');
  EXPECT_EQ(first_newline, 4u + 40u);
}

TEST(Render, TimeWindow) {
  const auto t = run();
  trace::RenderOptions opts;
  opts.t_begin = 0.0;
  opts.t_end = 1.0;  // before the checkpoint at t=2
  opts.legend = false;
  const std::string art = trace::render_spacetime(t, opts);
  EXPECT_EQ(art.find('C'), std::string::npos);
}

TEST(Render, FailureRunShowsFailureAndRestart) {
  const mp::Program p = mp::parse(R"(
    program f { loop 3 { compute 2.0; checkpoint;
      send to (rank + 1) % nprocs tag 1;
      recv from (rank - 1 + nprocs) % nprocs tag 1; } })");
  sim::SimOptions opts;
  opts.nprocs = 2;
  opts.fault_plan.faults = {sim::FaultPlan::at_time(0, 3.0)};
  const auto result = sim::Engine(p, opts).run();
  const std::string art = trace::render_spacetime(result.trace);
  EXPECT_NE(art.find('X'), std::string::npos);
  EXPECT_NE(art.find('^'), std::string::npos);
}

TEST(Render, RejectsDegenerateOptions) {
  const auto t = run();
  trace::RenderOptions narrow;
  narrow.width = 3;
  EXPECT_THROW(trace::render_spacetime(t, narrow), util::InternalError);
  trace::RenderOptions empty;
  empty.t_begin = 5.0;
  empty.t_end = 5.0;
  EXPECT_THROW(trace::render_spacetime(t, empty), util::InternalError);
}

}  // namespace
