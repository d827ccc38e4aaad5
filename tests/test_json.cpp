// Unit tests for trace JSON export/import: lossless round-trips on real
// simulated traces (including failure runs), determinism of the writer,
// error handling of the reader, and analysis equivalence on loaded
// traces.
#include <gtest/gtest.h>

#include <cstdio>

#include "mp/parser.h"
#include "sim/engine.h"
#include "trace/analysis.h"
#include "trace/json.h"
#include "util/error.h"

namespace {

using namespace acfc;

trace::Trace make_trace(bool with_failure) {
  const mp::Program p = mp::parse(R"(
    program j {
      loop 3 {
        compute 1.5;
        checkpoint;
        send to (rank + 1) % nprocs tag 1 bytes 64;
        recv from (rank - 1 + nprocs) % nprocs tag 1;
      }
    })");
  sim::SimOptions opts;
  opts.nprocs = 3;
  if (with_failure) opts.fault_plan.faults = {sim::FaultPlan::at_time(1, 2.0)};
  return sim::Engine(p, opts).run().trace;
}

void expect_equal(const trace::Trace& a, const trace::Trace& b) {
  EXPECT_EQ(a.nprocs, b.nprocs);
  EXPECT_DOUBLE_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.final_digest, b.final_digest);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << i;
    EXPECT_EQ(a.events[i].proc, b.events[i].proc) << i;
    EXPECT_DOUBLE_EQ(a.events[i].time, b.events[i].time) << i;
    EXPECT_TRUE(a.events[i].vc == b.events[i].vc) << i;
    EXPECT_EQ(a.events[i].msg_id, b.events[i].msg_id) << i;
  }
  ASSERT_EQ(a.messages.size(), b.messages.size());
  for (size_t i = 0; i < a.messages.size(); ++i) {
    EXPECT_EQ(a.messages[i].seq, b.messages[i].seq) << i;
    EXPECT_DOUBLE_EQ(a.messages[i].recv_time, b.messages[i].recv_time) << i;
    EXPECT_TRUE(a.messages[i].send_vc == b.messages[i].send_vc) << i;
    EXPECT_EQ(a.messages[i].consumed, b.messages[i].consumed) << i;
    EXPECT_EQ(a.messages[i].replayed, b.messages[i].replayed) << i;
  }
  ASSERT_EQ(a.checkpoints.size(), b.checkpoints.size());
  for (size_t i = 0; i < a.checkpoints.size(); ++i) {
    EXPECT_EQ(a.checkpoints[i].static_index, b.checkpoints[i].static_index);
    EXPECT_EQ(a.checkpoints[i].instance, b.checkpoints[i].instance);
    EXPECT_DOUBLE_EQ(a.checkpoints[i].t_commit, b.checkpoints[i].t_commit);
    EXPECT_TRUE(a.checkpoints[i].vc == b.checkpoints[i].vc);
  }
}

TEST(TraceJson, RoundTripFailureFree) {
  const auto t = make_trace(false);
  const auto back = trace::from_json(trace::to_json(t));
  expect_equal(t, back);
}

TEST(TraceJson, RoundTripWithFailure) {
  const auto t = make_trace(true);
  const auto back = trace::from_json(trace::to_json(t));
  expect_equal(t, back);
}

TEST(TraceJson, WriterIsDeterministic) {
  const auto t = make_trace(false);
  EXPECT_EQ(trace::to_json(t), trace::to_json(t));
}

TEST(TraceJson, SecondRoundTripIsFixedPoint) {
  const auto t = make_trace(false);
  const std::string once = trace::to_json(t);
  const std::string twice = trace::to_json(trace::from_json(once));
  EXPECT_EQ(once, twice);
}

TEST(TraceJson, AnalysesAgreeOnLoadedTrace) {
  const auto t = make_trace(false);
  const auto back = trace::from_json(trace::to_json(t));
  const auto cuts_a = trace::all_straight_cuts(t);
  const auto cuts_b = trace::all_straight_cuts(back);
  ASSERT_EQ(cuts_a.size(), cuts_b.size());
  for (size_t i = 0; i < cuts_a.size(); ++i) {
    EXPECT_EQ(trace::analyze_cut(t, cuts_a[i]).consistent,
              trace::analyze_cut(back, cuts_b[i]).consistent);
  }
  const auto line_a = trace::max_recovery_line(t, t.end_time);
  const auto line_b = trace::max_recovery_line(back, back.end_time);
  EXPECT_EQ(line_a.cut.member, line_b.cut.member);
}

TEST(TraceJson, SaveAndLoadFile) {
  const auto t = make_trace(false);
  const std::string path = ::testing::TempDir() + "acfc_trace_test.json";
  trace::save_json(t, path);
  const auto back = trace::load_json(path);
  expect_equal(t, back);
  std::remove(path.c_str());
}

TEST(TraceJson, AcceptsWhitespaceAndEscapes) {
  const auto t = trace::from_json(R"(
    {
      "nprocs": 2, "end_time": 1.5, "completed": true,
      "final_digest": [1, 2],
      "events": [ { "kind": "send", "proc": 0, "time": 0.25,
                    "vc": [1, 0], "stmt_uid": 3, "msg_id": 0, "peer": 1,
                    "tag": 7, "ckpt_id": -1, "ckpt_instance": -1,
                    "forced": false } ],
      "messages": [], "checkpoints": []
    })");
  EXPECT_EQ(t.nprocs, 2);
  ASSERT_EQ(t.events.size(), 1u);
  EXPECT_EQ(t.events[0].kind, trace::EventKind::kSend);
  EXPECT_EQ(t.events[0].vc[0], 1u);
}

TEST(TraceJson, RejectsMalformedInput) {
  EXPECT_THROW(trace::from_json("not json"), util::ProgramError);
  EXPECT_THROW(trace::from_json("{\"nprocs\": 2}"), util::ProgramError);
  EXPECT_THROW(trace::from_json("{}"), util::ProgramError);
  EXPECT_THROW(trace::from_json("[1,2,3]"), util::ProgramError);
  EXPECT_THROW(
      trace::from_json(
          R"({"nprocs":0,"end_time":0,"completed":true,
              "final_digest":[],"events":[],"messages":[],
              "checkpoints":[]})"),
      util::ProgramError);
}

TEST(TraceJson, RejectsUnknownEventKind) {
  EXPECT_THROW(trace::from_json(R"(
    {"nprocs":1,"end_time":0,"completed":true,"final_digest":[],
     "events":[{"kind":"teleport","proc":0,"time":0,"vc":[0],
                "stmt_uid":-1,"msg_id":-1,"peer":-1,"tag":0,
                "ckpt_id":-1,"ckpt_instance":-1,"forced":false}],
     "messages":[],"checkpoints":[]})"),
               util::ProgramError);
}

TEST(TraceJson, RejectsWrongClockSize) {
  EXPECT_THROW(trace::from_json(R"(
    {"nprocs":2,"end_time":0,"completed":true,"final_digest":[],
     "events":[{"kind":"send","proc":0,"time":0,"vc":[0],
                "stmt_uid":-1,"msg_id":-1,"peer":-1,"tag":0,
                "ckpt_id":-1,"ckpt_instance":-1,"forced":false}],
     "messages":[],"checkpoints":[]})"),
               util::ProgramError);
}

TEST(TraceJson, RejectsTrailingGarbage) {
  const auto t = make_trace(false);
  EXPECT_THROW(trace::from_json(trace::to_json(t) + "extra"),
               util::ProgramError);
}

}  // namespace
