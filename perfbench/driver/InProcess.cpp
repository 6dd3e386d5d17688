//===- perfbench/driver/InProcess.cpp - analyze-seq and portfolio-race ----===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// The two in-process workloads. Both are closed loops over a fixed task
/// list, one task at a time: parseProgram, then one public analysis call
/// (TerminationAnalyzer::run, or runPortfolio over the 18-entrant default
/// roster). A task's time to verdict is parse + call. Verdict checks and
/// certificate re-validation run outside the timed region.
///
/// A run repeats whole passes over the task list until --seconds have
/// elapsed. With --trace 1, passes alternate untraced and traced; the
/// traced passes attach a RecordingSink and give the per-layer numbers,
/// and the ratio of traced to untraced pass time gives the overhead.
///
//===----------------------------------------------------------------------===//

#include "Measure.h"

#include "program/Parser.h"
#include "support/Json.h"
#include "termination/CertifiedModule.h"
#include "termination/Portfolio.h"

#include <functional>
#include <optional>
#include <sstream>

using namespace termcheck;
using namespace termcheck::perfbench;

namespace {

/// The Figure 5 budget (bench/bench_fig5_multistage.cpp), per analysis.
constexpr double BudgetSeconds = 2.0;
constexpr uint64_t BudgetIterations = 80;
/// The per-entrant budget of a portfolio race. Every solved task's winner
/// finishes in under 0.1 s; at the Figure 5 budget the one gcd_like race
/// (18 entrants x 2 s on 4 threads) took 95% of a pass, and how far its
/// entrants got set a peak memory that varied 2x from run to run.
constexpr double RaceBudgetSeconds = 0.5;
/// Random programs come from two draws: a reference draw from a fixed
/// generator seed, and a smaller draw from the run's --seed. Per-program
/// times spread widely (coefficient of variation ~1.8), so a corpus drawn
/// entirely from the run seed moves the timing metrics by 13-16% from seed
/// to seed; the fixed draw keeps that composition noise small while the
/// seeded draw still varies the inputs.
constexpr uint64_t ReferenceSeed = 2018;
constexpr size_t SeqReferenceCount = 300;
constexpr size_t SeqSeededCount = 30;
constexpr size_t RaceReferenceCount = 40;
constexpr size_t RaceSeededCount = 8;
/// Set-up repeats before the first pass; one more follows every pass, so
/// the samples span the run. setup_s is their median.
constexpr int SetupRepeats = 8;

using CorpusFn = std::function<std::vector<Task>()>;

/// Re-checks the evidence behind a conclusive verdict: every module of a
/// TERMINATING result with validateModule, the certificate of a
/// NONTERMINATING one with NontermCertificate::validate. \returns "" when
/// the evidence holds.
std::string validateEvidence(const AnalysisResult &R, const Program &P) {
  if (R.V == Verdict::Terminating) {
    if (R.Modules.empty())
      return "TERMINATING without modules";
    for (const CertifiedModule &M : R.Modules) {
      std::string D = validateModule(M, P);
      if (!D.empty())
        return "invalid module: " + D;
    }
  }
  if (R.V == Verdict::Nonterminating) {
    if (!R.Nonterm)
      return "NONTERMINATING without a certificate";
    std::string D = R.Nonterm->validate(P);
    if (!D.empty())
      return "invalid certificate: " + D;
  }
  return "";
}

/// Builds the task list and parses every program once; appends the time
/// that took to \p Times.
std::vector<Task> setUp(const CorpusFn &Make, std::vector<double> &Times) {
  Timer W;
  std::vector<Task> Tasks = Make();
  for (const Task &T : Tasks)
    if (!parseProgram(T.Source).ok())
      throw std::runtime_error("corpus program " + T.Name +
                               " does not parse");
  Times.push_back(W.seconds());
  return Tasks;
}

/// What one timed public call produced.
struct CallOutcome {
  /// The analysis (for a portfolio, the winner's run).
  AnalysisResult Result;
  /// Seconds of the public call alone.
  double Seconds = 0;
  /// Refinement iterations (summed over entrants for a portfolio).
  int64_t Iterations = 0;
  /// Winner name (portfolio only).
  std::string Winner;
};

/// Runs one task's public call on a parsed program. \p Traced says whether
/// this is a traced pass; then the call records its spans under
/// (\p TraceId, \p Parent) and adds its layer sums into \p Layers.
using CallFn = std::function<CallOutcome(Program &P, bool Traced,
                                         uint64_t TraceId, uint64_t Parent)>;

std::string rowJson(const RunContext &Ctx, size_t Pass, bool Traced,
                    const Task &T, const CallOutcome &C, double ParseS,
                    Outcome O, const std::string &Why) {
  std::ostringstream OS;
  json::Writer W(OS, /*Pretty=*/false);
  W.beginObject();
  W.field("workload", Ctx.Workload);
  W.field("seed", static_cast<int64_t>(Ctx.Seed));
  W.field("pass", static_cast<int64_t>(Pass));
  W.field("traced", Traced);
  W.field("task", T.Name);
  W.field("origin", T.Origin);
  W.field("verdict", verdictName(C.Result.V));
  W.field("outcome", O == Outcome::Solved     ? "solved"
                     : O == Outcome::Unsolved ? "unsolved"
                                              : "error");
  if (!Why.empty())
    W.field("error", Why);
  W.field("seconds", ParseS + C.Seconds);
  W.field("parse_s", ParseS);
  W.field("call_s", C.Seconds);
  W.field("iterations", C.Iterations);
  W.field("pass_peak_rss_mb", peakRssSelfMb());
  if (!C.Winner.empty())
    W.field("winner", C.Winner);
  W.key("timers_s");
  W.beginObject();
  for (const auto &[K, V] : C.Result.Stats.times())
    W.field(K, V);
  W.endObject();
  W.endObject();
  return OS.str();
}

/// Sums the per-task medians of the tasks in \p Which over \p A and \p B;
/// \returns sum(A) / sum(B).
double pairedRatio(const std::vector<TaskRecord> &A,
                   const std::vector<TaskRecord> &B,
                   const std::vector<size_t> &Which) {
  double SA = 0, SB = 0;
  for (size_t I : Which)
    if (!A[I].Seconds.empty() && !B[I].Seconds.empty()) {
      SA += median(A[I].Seconds);
      SB += median(B[I].Seconds);
    }
  return SB > 0 ? SA / SB : 0;
}

/// The shared pass loop of both in-process workloads: set-up from \p Make,
/// then passes. Passes cover every task except the known gaps; those run
/// once per mode after the passes: their time is the budget, repeating them
/// would only measure the clock, and the memory their timed-out analyses
/// leave behind would otherwise carry into every later pass.
WorkloadResult runPasses(const RunContext &Ctx, const CorpusFn &Make,
                         SpanLog &Spans, Rows &Out, LayerSums &Layers,
                         const char *CallName, PerTask Reduce,
                         const CallFn &Call) {
  WorkloadResult Res;
  std::vector<double> SetupTimes;
  std::vector<Task> Tasks;
  for (int I = 0; I < SetupRepeats; ++I)
    Tasks = setUp(Make, SetupTimes);
  std::vector<size_t> PassTasks, Gaps;
  for (size_t I = 0; I < Tasks.size(); ++I)
    (Tasks[I].KnownGap ? Gaps : PassTasks).push_back(I);
  // Index 0: untraced executions (end-to-end metrics); 1: traced ones.
  std::vector<TaskRecord> Records[2] = {std::vector<TaskRecord>(Tasks.size()),
                                        std::vector<TaskRecord>(Tasks.size())};
  uint64_t TraceId = 0;

  auto Execute = [&](size_t I, size_t Pass, bool Traced) {
    const Task &T = Tasks[I];
    ++TraceId;
    if (Traced)
      Layers.begin(I);
    uint64_t TaskSpan = Traced ? Spans.open(TraceId, 0, "task") : 0;
    uint64_t ParseSpan =
        Traced ? Spans.open(TraceId, TaskSpan, "parseProgram") : 0;
    Timer W;
    ParseResult PR = parseProgram(T.Source);
    const double ParseS = W.seconds();
    if (Traced)
      Spans.close(ParseSpan);
    CallOutcome C;
    if (PR.ok())
      C = Call(*PR.Prog, Traced, TraceId, TaskSpan);
    if (Traced) {
      Spans.close(TaskSpan);
      Layers.add("program.parse_s", ParseS);
    }

    // Outside the timed region: score the verdict, then its evidence.
    std::string Why;
    Outcome O;
    if (!PR.ok()) {
      O = Outcome::Error;
      Why = "parse error: " + PR.Error;
    } else {
      O = judge(T, C.Result.V, Why);
      std::string Invalid = validateEvidence(C.Result, *PR.Prog);
      if (O != Outcome::Error && !Invalid.empty()) {
        O = Outcome::Error;
        Why = Invalid;
      }
    }
    Res.Counts.record(T, O, Why, Records[Traced][I], ParseS + C.Seconds);
    Out.add(rowJson(Ctx, Pass, Traced, T, C, ParseS, O, Why));
  };

  size_t Passes[2] = {0, 0};
  std::vector<double> PassPeaks;
  const size_t MinPasses = Ctx.Traced ? 2 : 1;
  Timer Clock;
  size_t Pass = 0;
  for (; Pass < MinPasses || Clock.seconds() < Ctx.Seconds; ++Pass) {
    const bool Traced = Ctx.Traced && Pass % 2 == 1;
    ++Passes[Traced];
    resetPeakRss();
    for (size_t I : PassTasks)
      Execute(I, Pass, Traced);
    if (!Traced)
      PassPeaks.push_back(peakRssSelfMb());
    setUp(Make, SetupTimes);
  }
  for (bool Traced : {false, true})
    if (!Traced || Ctx.Traced)
      for (size_t I : Gaps)
        Execute(I, Pass, Traced);

  addVerdictMetrics(Res.Metrics, Records[0], Reduce);
  double PassSeconds = 0;
  for (size_t I : PassTasks)
    PassSeconds += reduceTimes(Records[0][I], Reduce);
  Res.Metrics["tasks_per_s"] = PassTasks.size() / PassSeconds;
  Res.Metrics["setup_s"] = median(SetupTimes);
  Res.Metrics["peak_rss_mb"] = median(PassPeaks);
  Res.Notes.push_back(setupNote(SetupTimes));
  Res.Notes.push_back(
      "tasks " + std::to_string(Tasks.size()) + " (" +
      std::to_string(Gaps.size()) + " known gaps, run once after " +
      std::to_string(Passes[0]) + " untraced and " +
      std::to_string(Passes[1]) + " traced passes); verdict percentiles " +
      "over per-task " + (Reduce == PerTask::Fastest ? "minima" : "medians") +
      " (" + CallName + ")");
  if (Ctx.Traced) {
    analyzerLayerMetrics(Res.Metrics, Layers);
    Res.Metrics["trace.overhead_frac"] =
        pairedRatio(Records[1], Records[0], PassTasks) - 1.0;
  }
  return Res;
}

} // namespace

WorkloadResult termcheck::perfbench::runAnalyzeSeq(const RunContext &Ctx,
                                                   SpanLog &Spans, Rows &Out) {
  LayerSums Layers;
  return runPasses(
      Ctx,
      [&] {
        std::vector<Task> Ts = figure5Suite();
        for (std::vector<Task> Draw :
             {randomDraw(ReferenceSeed, SeqReferenceCount, "reference",
                         "ref_"),
              randomDraw(Ctx.Seed, SeqSeededCount, "random")})
          Ts.insert(Ts.end(), Draw.begin(), Draw.end());
        return Ts;
      },
      Spans, Out, Layers, "TerminationAnalyzer::run", PerTask::Fastest,
      [&](Program &P, bool Traced, uint64_t TraceId, uint64_t Parent) {
        AnalyzerOptions Opts;
        Opts.TimeoutSeconds = BudgetSeconds;
        Opts.MaxIterations = BudgetIterations;
        RecordingSink Sink;
        std::optional<Trace> Tracer;
        if (Traced) {
          Tracer.emplace(Sink);
          Opts.Tracer = &*Tracer;
        }
        const double Start = Spans.now();
        TerminationAnalyzer A(P, Opts);
        Timer W;
        CallOutcome C;
        C.Result = A.run();
        C.Seconds = W.seconds();
        const AnalysisResult &R = C.Result;
        if (Traced) {
          uint64_t Run = Spans.add(TraceId, Parent, "TerminationAnalyzer::run",
                                   Start, Start + C.Seconds);
          Spans.deriveAnalyzerSpans(TraceId, Run, Start, Sink.events());
          addAnalyzerLayers(Layers, R.Stats);
          Layers.add("termination.run_s", R.Seconds);
        }
        C.Iterations = R.Stats.get("iterations");
        return C;
      });
}

WorkloadResult termcheck::perfbench::runPortfolioRace(const RunContext &Ctx,
                                                      SpanLog &Spans,
                                                      Rows &Out) {
  const std::vector<PortfolioConfig> Roster = defaultPortfolio(18);
  LayerSums Layers;
  WorkloadResult Res = runPasses(
      Ctx,
      [&] {
        std::vector<Task> Ts = diskCorpus(Ctx.Root + "/benchmarks");
        for (std::vector<Task> More :
             {figure5Suite(),
              randomDraw(ReferenceSeed, RaceReferenceCount, "reference",
                         "ref_"),
              randomDraw(Ctx.Seed, RaceSeededCount, "random")})
          Ts.insert(Ts.end(), More.begin(), More.end());
        return Ts;
      },
      Spans, Out, Layers, "runPortfolio", PerTask::Median,
      [&](Program &P, bool Traced, uint64_t TraceId, uint64_t Parent) {
        PortfolioOptions Opts;
        Opts.Jobs = Ctx.Width;
        Opts.TimeoutSeconds = RaceBudgetSeconds;
        Opts.MaxIterations = BudgetIterations;
        RecordingSink Sink;
        std::optional<Trace> Tracer;
        if (Traced) {
          Tracer.emplace(Sink);
          Opts.Tracer = &*Tracer;
        }
        const double Start = Spans.now();
        Timer W;
        PortfolioRunResult PR = runPortfolio(P, Roster, Opts);
        CallOutcome C;
        C.Seconds = W.seconds();
        const bool HasWinner = PR.WinnerIndex < PR.Entrants.size();
        if (HasWinner)
          C.Winner = PR.WinnerName;
        // Layer counters sum every started entrant's work (Merged namespaces
        // them as cfg.<entrant>.<counter>); layer timers are the winner's,
        // since Merged keeps no wall clock.
        Statistics Work;
        for (const auto &[K, V] : PR.Merged.counters()) {
          size_t Dot = K.find('.', 4);
          if (K.rfind("cfg.", 0) == 0 && Dot != std::string::npos)
            Work.add(K.substr(Dot + 1), V);
        }
        C.Iterations = Work.get("iterations");
        if (Traced) {
          uint64_t Race = Spans.add(TraceId, Parent, "runPortfolio", Start,
                                    Start + C.Seconds);
          // Entrant timestamps are relative to the race start.
          double Busy = 0;
          for (const EntrantTimeline &E : PR.Entrants) {
            if (!E.Started)
              continue;
            Spans.add(TraceId, Race, "entrant:" + E.Name,
                      Start + E.SpawnSeconds, Start + E.FinishSeconds);
            Busy += E.FinishSeconds - E.SpawnSeconds;
            Layers.add("portfolio.entrants_started", 1);
          }
          Layers.add("portfolio.entrant_busy_s", Busy);
          if (HasWinner) {
            const EntrantTimeline &Win = PR.Entrants[PR.WinnerIndex];
            Layers.add("portfolio.winner_s", Win.FinishSeconds);
            Layers.add("portfolio.cancel_lag_s",
                       PR.Seconds - Win.FinishSeconds);
            Layers.add("portfolio.winner_busy_s",
                       Win.FinishSeconds - Win.SpawnSeconds);
            Layers.add("portfolio.wins." + PR.WinnerName, 1);
          }
          for (const auto &[K, V] : PR.Result.Stats.times())
            Work.addTime(K, V);
          addAnalyzerLayers(Layers, Work);
          Layers.add("termination.run_s", PR.Result.Seconds);
        }
        C.Result = std::move(PR.Result);
        return C;
      });

  if (Ctx.Traced) {
    for (const char *Key :
         {"portfolio.winner_s", "portfolio.cancel_lag_s",
          "portfolio.entrant_busy_s", "portfolio.entrants_started"})
      Res.Metrics[Key] = Layers.total(Key);
    Res.Metrics["portfolio.useful_ratio"] =
        Layers.ratio("portfolio.winner_busy_s", "portfolio.entrant_busy_s");
    for (const PortfolioConfig &Cfg : Roster)
      Res.Metrics["portfolio.wins." + Cfg.Name] =
          Layers.total("portfolio.wins." + Cfg.Name);
  }
  return Res;
}
