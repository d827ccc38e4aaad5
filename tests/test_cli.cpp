// Integration tests for the `acfc` command-line tool: each subcommand is
// spawned as a real process against the shipped example programs, and
// stdout/exit codes are checked.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult run_cli(const std::string& args) {
  const std::string cmd = std::string(ACFC_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  RunResult result;
  std::array<char, 4096> buffer{};
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr)
    result.output += buffer.data();
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string program_path(const std::string& name) {
  return std::string(ACFC_PROGRAMS_DIR) + "/" + name;
}

TEST(Cli, NoArgsPrintsUsage) {
  const auto r = run_cli("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownCommandPrintsUsage) {
  const auto r = run_cli("frobnicate x.mp");
  EXPECT_EQ(r.exit_code, 2);
}

TEST(Cli, AnalyzeSafeProgram) {
  const auto r = run_cli("analyze " + program_path("jacobi_aligned.mp"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("verdict: safe"), std::string::npos);
}

TEST(Cli, AnalyzeUnsafeProgramExitsNonzero) {
  const auto r = run_cli("analyze " + program_path("jacobi_misaligned.mp"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("UNSAFE"), std::string::npos);
  EXPECT_NE(r.output.find("[HARD]"), std::string::npos);
}

TEST(Cli, PlaceRepairsAndPrintsProgram) {
  const auto r = run_cli("place " + program_path("jacobi_misaligned.mp"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("program jacobi_misaligned"), std::string::npos);
  EXPECT_NE(r.output.find("moves="), std::string::npos);
}

TEST(Cli, PlaceThenAnalyzeRoundTrip) {
  const std::string out = ::testing::TempDir() + "acfc_cli_fixed.mp";
  const auto place =
      run_cli("place " + program_path("jacobi_misaligned.mp") + " -o " + out);
  ASSERT_EQ(place.exit_code, 0);
  const auto analyze = run_cli("analyze " + out);
  EXPECT_EQ(analyze.exit_code, 0) << analyze.output;
  std::remove(out.c_str());
}

TEST(Cli, RunReportsStraightCuts) {
  const auto r =
      run_cli("run " + program_path("jacobi_aligned.mp") + " -n 4");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("straight cuts:"), std::string::npos);
  EXPECT_NE(r.output.find("(0 inconsistent)"), std::string::npos);
}

TEST(Cli, RunUnsafeProgramExitsNonzero) {
  const auto r =
      run_cli("run " + program_path("jacobi_misaligned.mp") + " -n 4");
  EXPECT_EQ(r.exit_code, 1);
}

TEST(Cli, RunWithFailureAndDiagram) {
  const auto r = run_cli("run " + program_path("jacobi_aligned.mp") +
                         " -n 4 --fail 1@20 --diagram");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("restarts: 1"), std::string::npos);
  EXPECT_NE(r.output.find("P0"), std::string::npos);  // diagram rows
}

TEST(Cli, RunRejectsMalformedFailSpecs) {
  // Each is a usage error (exit 2) with a message, never a crash: a
  // process outside [0, n), a negative time, trailing garbage.
  for (const std::string spec : {"-1@3", "9@3", "1@-5", "1@3x", "1@inf"}) {
    SCOPED_TRACE(spec);
    const auto r = run_cli("run " + program_path("jacobi_aligned.mp") +
                           " -n 4 --fail " + spec);
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("invalid --fail"), std::string::npos) << r.output;
  }
}

TEST(Cli, RunChecksFailProcessAgainstALaterWorldSize) {
  const std::string prog = program_path("jacobi_aligned.mp");
  EXPECT_EQ(run_cli("run " + prog + " --fail 5@20 -n 4").exit_code, 2);
  const auto r = run_cli("run " + prog + " --fail 5@20 -n 6");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("restarts: 1"), std::string::npos);
}

TEST(Cli, NumericFlagsRejectTrailingGarbage) {
  // Every integer and double flag is parsed as a whole string; "4x" is a
  // usage error (exit 2) naming the flag, not 4.
  const std::string prog = program_path("jacobi_aligned.mp");
  for (const std::string& args : std::vector<std::string>{
           "run " + prog + " -n 4x", "analyze " + prog + " -n 4x",
           "run " + prog + " --seed 3s", "insert " + prog + " -T 5.0.1",
           "model --wm 2e-3ms", "explore -w ring -n 3 --depth 4x",
           "explore -w ring -n 3 --stall-window 0.5s"}) {
    SCOPED_TRACE(args);
    const auto r = run_cli(args);
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("invalid -"), std::string::npos) << r.output;
  }
}

TEST(Cli, NegativeSeedIsRejectedNotWrapped) {
  const auto r = run_cli("run " + program_path("jacobi_aligned.mp") +
                         " -n 4 --seed -1");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("invalid --seed -1"), std::string::npos)
      << r.output;
}

TEST(Cli, NegativeCountsAndNonFiniteDoublesAreRejected) {
  for (const char* args :
       {"explore -w ring -n 3 --depth -1", "explore -w ring -n 3 --threads 0",
        "model --wm inf", "model --wm nan"}) {
    SCOPED_TRACE(args);
    EXPECT_EQ(run_cli(args).exit_code, 2);
  }
}

TEST(Cli, RunAndExploreNeedTwoProcesses) {
  // -n 0 used to die on an internal check with exit 1.
  const std::string prog = program_path("jacobi_aligned.mp");
  for (const std::string& args : std::vector<std::string>{
           "run " + prog + " -n 0", "run " + prog + " -n 1",
           "explore -w ring -n 1", "explore -w ring -n 0"}) {
    SCOPED_TRACE(args);
    const auto r = run_cli(args);
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("invalid -n"), std::string::npos) << r.output;
  }
  EXPECT_EQ(run_cli("run " + prog + " -n 2").exit_code, 0);
}

TEST(Cli, InsertAddsCheckpoints) {
  // pipeline.mp already has checkpoints; use a temp checkpoint-free file.
  const std::string src = ::testing::TempDir() + "acfc_cli_plain.mp";
  {
    FILE* f = fopen(src.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("program plain { loop 4 { compute 50.0; } }\n", f);
    fclose(f);
  }
  const auto r = run_cli("insert " + src + " -T 100");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("checkpoint"), std::string::npos);
  std::remove(src.c_str());
}

TEST(Cli, DotEmitsGraph) {
  const auto r = run_cli("dot " + program_path("jacobi_aligned.mp"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("digraph"), std::string::npos);
  EXPECT_NE(r.output.find("msg"), std::string::npos);
}

TEST(Cli, ModelPrintsOverheadTable) {
  const auto r = run_cli("model -n 64 --wm 0.01");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("appl-driven"), std::string::npos);
  EXPECT_NE(r.output.find("C-L"), std::string::npos);
}

TEST(Cli, FaceoffRunsAllProtocols) {
  const auto r =
      run_cli("faceoff " + program_path("stencil_2phase.mp") +
              " -n 4 --interval 40");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("SaS"), std::string::npos);
  EXPECT_NE(r.output.find("uncoord"), std::string::npos);
}

TEST(Cli, MissingFileReportsError) {
  const auto r = run_cli("analyze /nonexistent/nowhere.mp");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("error:"), std::string::npos);
}

TEST(Cli, WorkloadsListsNames) {
  const auto r = run_cli("workloads");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("butterfly"), std::string::npos);
  EXPECT_NE(r.output.find("jacobi_aligned"), std::string::npos);
}

TEST(Cli, WorkloadFlagLoadsNamedProgram) {
  const auto r = run_cli("run -w ring -n 5");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("(0 inconsistent)"), std::string::npos);
}

TEST(Cli, WorkloadFlagAnalyzeUnsafe) {
  const auto r = run_cli("analyze -w jacobi_misaligned");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("UNSAFE"), std::string::npos);
}

TEST(Cli, UnknownWorkloadErrors) {
  const auto r = run_cli("run -w not_a_workload");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unknown workload"), std::string::npos);
}

}  // namespace
