//===- perfbench/driver/main.cpp - termcheck benchmark driver -------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// termbench runs one benchmark workload and prints its metrics:
///
///   termbench --workload analyze-seq|portfolio-race|daemon-batch
///             --seed N --seconds S --trace 0|1
///             --root REPO --out DIR [--daemon PATH]
///
/// The last line of standard output is one JSON object with the keys
/// correct, attempted, failed and metrics. With --trace 0 the metrics are
/// the end-to-end ones (measured with tracing off); with --trace 1 they are
/// the per-layer ones, from traced passes. Per-execution rows and (traced)
/// spans are written under --out when the run ends. The exit code is 1 when
/// any task got a wrong verdict, failed re-validation, or errored.
///
//===----------------------------------------------------------------------===//

#include "Measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

using namespace termcheck;
using namespace termcheck::perfbench;

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "termbench: %s\n"
               "usage: termbench --workload analyze-seq|portfolio-race|"
               "daemon-batch --seed N --seconds S --trace 0|1 --root DIR "
               "--out DIR [--daemon PATH]\n",
               Why);
  std::exit(2);
}

void printResult(const WorkloadResult &R, bool Traced) {
  const std::vector<MetricSpec> &Schema =
      Traced ? perLayerSchema() : endToEndSchema();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Counts.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(R.Counts.Attempted),
              static_cast<unsigned long long>(R.Counts.Failed));
  for (size_t I = 0; I < Schema.size(); ++I) {
    auto It = R.Metrics.find(Schema[I].Name);
    double V = It == R.Metrics.end() ? 0.0 : It->second;
    if (!std::isfinite(V))
      V = 0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                I ? ", " : "", Schema[I].Name.c_str(), V,
                Schema[I].Unit.c_str());
  }
  std::printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  RunContext Ctx;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage("missing value");
      return Argv[++I];
    };
    std::string Arg = Argv[I];
    try {
      if (Arg == "--workload")
        Ctx.Workload = Value();
      else if (Arg == "--seed") {
        Ctx.Seed = std::stoull(Value());
        HaveSeed = true;
      } else if (Arg == "--seconds") {
        Ctx.Seconds = std::stod(Value());
        HaveSeconds = true;
      } else if (Arg == "--trace") {
        std::string V = Value();
        if (V != "0" && V != "1")
          usage("--trace must be 0 or 1");
        Ctx.Traced = V == "1";
        HaveTrace = true;
      } else if (Arg == "--root")
        Ctx.Root = Value();
      else if (Arg == "--out")
        Ctx.OutDir = Value();
      else if (Arg == "--daemon")
        Ctx.Daemon = Value();
      else
        usage(("unknown argument " + Arg).c_str());
    } catch (const std::logic_error &) {
      usage(("bad value for " + Arg).c_str());
    }
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace || Ctx.Root.empty() ||
      Ctx.OutDir.empty() || Ctx.Seconds <= 0)
    usage("--seed, --seconds, --trace, --root and --out are required");
  // At most four threads or outstanding requests, fewer on smaller hosts.
  Ctx.Width = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));

  using WorkloadFn = WorkloadResult (*)(const RunContext &, SpanLog &, Rows &);
  WorkloadFn Run = nullptr;
  if (Ctx.Workload == "analyze-seq")
    Run = runAnalyzeSeq;
  else if (Ctx.Workload == "portfolio-race")
    Run = runPortfolioRace;
  else if (Ctx.Workload == "daemon-batch") {
    if (Ctx.Daemon.empty())
      usage("daemon-batch needs --daemon");
    Run = runDaemonBatch;
  } else
    usage("unknown workload");

  std::filesystem::create_directories(Ctx.OutDir);
  const std::string Stem = Ctx.OutDir + "/" + Ctx.Workload + "-seed" +
                           std::to_string(Ctx.Seed) + "-trace" +
                           (Ctx.Traced ? "1" : "0");
  SpanLog Spans;
  Rows Out;
  WorkloadResult R;
  try {
    R = Run(Ctx, Spans, Out);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "termbench: %s: %s\n", Ctx.Workload.c_str(),
                 E.what());
    return 3;
  }
  if (!Out.write(Stem + ".rows.jsonl") ||
      (Ctx.Traced && !Spans.write(Stem + ".spans.jsonl"))) {
    std::fprintf(stderr, "termbench: cannot write results under %s\n",
                 Ctx.OutDir.c_str());
    return 3;
  }

  for (const std::string &E : R.Counts.Errors)
    std::fprintf(stderr, "termbench: error: %s\n", E.c_str());
  std::printf("workload %s, seed %llu, width %u\n", Ctx.Workload.c_str(),
              static_cast<unsigned long long>(Ctx.Seed), Ctx.Width);
  for (const std::string &N : R.Notes)
    std::printf("%s\n", N.c_str());
  std::printf("rows: %s.rows.jsonl\n", Stem.c_str());
  if (Ctx.Traced)
    std::printf("spans: %s.spans.jsonl\n", Stem.c_str());
  printResult(R, Ctx.Traced);
  return R.Counts.Failed == 0 ? 0 : 1;
}
