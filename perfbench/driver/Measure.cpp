//===- perfbench/driver/Measure.cpp - Metrics, rows and spans -------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Measure.h"

#include "support/Json.h"
#include "termination/Portfolio.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <sys/resource.h>

using namespace termcheck;
using namespace termcheck::perfbench;

double termcheck::perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - static_cast<double>(Lo)) * (V[Hi] - V[Lo]);
}

void termcheck::perfbench::resetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double termcheck::perfbench::peakRssSelfMb() {
  std::ifstream In("/proc/self/status");
  for (std::string Key; In >> Key;) {
    if (Key == "VmHWM:") {
      double KiB = 0;
      In >> KiB;
      return KiB / 1024.0;
    }
    In.ignore(1 << 16, '\n');
  }
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::string termcheck::perfbench::setupNote(const std::vector<double> &Times) {
  if (Times.empty())
    return "setup: no samples";
  return "setup: median " + std::to_string(median(Times)) + " s of " +
         std::to_string(Times.size()) + " (min " +
         std::to_string(*std::min_element(Times.begin(), Times.end())) +
         ", max " +
         std::to_string(*std::max_element(Times.begin(), Times.end())) + ")";
}

const std::vector<MetricSpec> &termcheck::perfbench::endToEndSchema() {
  static const std::vector<MetricSpec> Schema = {
      {"setup_s", "s"},         {"solved_frac", "ratio"},
      {"verdict_p50_s", "s"},   {"verdict_p90_s", "s"},
      {"solved_wall_s", "s"},   {"tasks_per_s", "1/s"},
      {"peak_rss_mb", "MiB"},
  };
  return Schema;
}

const std::vector<MetricSpec> &termcheck::perfbench::perLayerSchema() {
  static const std::vector<MetricSpec> Schema = [] {
    std::vector<MetricSpec> S = {
        {"error_frac", "ratio"},
        {"program.parse_s", "s"},
        {"termination.run_s", "s"},
        {"termination.generalize_s", "s"},
        {"termination.generalize_calls", "count"},
        {"termination.generalize_share", "ratio"},
        {"termination.prove_s", "s"},
        {"termination.iterations", "count"},
        {"termination.layer_coverage", "ratio"},
        {"automata.subtract_s", "s"},
        {"automata.sample_s", "s"},
        {"automata.reduce_s", "s"},
        {"automata.product_states", "count"},
        {"automata.complement_states", "count"},
        {"automata.subsumption_pruned", "count"},
        {"automata.intern_hit_ratio", "ratio"},
        {"nontermination.prove_s", "s"},
        {"nontermination.cegis_rounds", "count"},
        {"portfolio.winner_s", "s"},
        {"portfolio.cancel_lag_s", "s"},
        {"portfolio.entrant_busy_s", "s"},
        {"portfolio.useful_ratio", "ratio"},
        {"portfolio.entrants_started", "count"},
    };
    for (const PortfolioConfig &C : defaultPortfolio(18))
      S.push_back({"portfolio.wins." + C.Name, "count"});
    for (const char *Name : {"cache.hits", "cache.misses", "cache.inserts",
                             "cache.validation_failures"})
      S.push_back({Name, "count"});
    S.push_back({"cache.hit_ratio", "ratio"});
    for (const char *Name : {"server.queue_s", "server.sandbox_s",
                             "server.analysis_s", "server.transport_s"})
      S.push_back({Name, "s"});
    for (const char *Name :
         {"server.queue_full", "server.worker_spawns", "server.worker_retries"})
      S.push_back({Name, "count"});
    S.push_back({"trace.overhead_frac", "ratio"});
    return S;
  }();
  return Schema;
}

void Tally::record(const Task &T, Outcome O, const std::string &Why,
                   TaskRecord &Rec, double Seconds) {
  ++Attempted;
  if (O == Outcome::Error) {
    ++Failed;
    if (Errors.size() < 8)
      Errors.push_back(T.Origin + "/" + T.Name + ": " + Why);
  }
  if (static_cast<int>(O) > static_cast<int>(Rec.Worst))
    Rec.Worst = O;
  Rec.Seconds.push_back(Seconds);
}

double termcheck::perfbench::reduceTimes(const TaskRecord &R,
                                         PerTask Reduce) {
  if (R.Seconds.empty())
    return 0;
  return Reduce == PerTask::Fastest
             ? *std::min_element(R.Seconds.begin(), R.Seconds.end())
             : median(R.Seconds);
}

void termcheck::perfbench::addVerdictMetrics(
    std::map<std::string, double> &Out, const std::vector<TaskRecord> &Records,
    PerTask Reduce) {
  // Shares and percentiles run over tasks; the solved-only wall sums the
  // tasks that were solved in every execution.
  std::vector<double> PerTaskTimes;
  double SolvedWall = 0;
  size_t Solved = 0, Failed = 0;
  for (const TaskRecord &R : Records) {
    if (R.Seconds.empty())
      continue;
    double T = reduceTimes(R, Reduce);
    PerTaskTimes.push_back(T);
    if (R.Worst == Outcome::Solved) {
      SolvedWall += T;
      ++Solved;
    }
    if (R.Worst == Outcome::Error)
      ++Failed;
  }
  const double Tasks = static_cast<double>(PerTaskTimes.size());
  Out["verdict_p50_s"] = quantile(PerTaskTimes, 0.5);
  Out["verdict_p90_s"] = quantile(PerTaskTimes, 0.9);
  Out["solved_wall_s"] = SolvedWall;
  Out["solved_frac"] = Tasks > 0 ? Solved / Tasks : 0;
  Out["error_frac"] = Tasks > 0 ? Failed / Tasks : 0;
}

double LayerSums::total(const std::string &Key) const {
  double Sum = 0;
  for (const auto &[Unit, Executions] : Units) {
    std::vector<double> V;
    for (const auto &E : Executions) {
      auto It = E.find(Key);
      V.push_back(It == E.end() ? 0.0 : It->second);
    }
    Sum += perfbench::median(std::move(V));
  }
  return Sum;
}

double LayerSums::ratio(const std::string &Num, const std::string &Den) const {
  double D = total(Den);
  return D == 0 ? 0 : total(Num) / D;
}

namespace {

/// Statistics key -> layer key.
const std::pair<const char *, const char *> TimerLayers[] = {
    {"time.generalize", "termination.generalize_s"},
    {"time.prove", "termination.prove_s"},
    {"time.subtract", "automata.subtract_s"},
    {"time.sample", "automata.sample_s"},
    {"time.reduce", "automata.reduce_s"},
    {"time.nonterm", "nontermination.prove_s"},
};
const std::pair<const char *, const char *> CounterLayers[] = {
    {"perf.generalize_calls", "termination.generalize_calls"},
    {"iterations", "termination.iterations"},
    {"difference.product_states", "automata.product_states"},
    {"difference.complement_states", "automata.complement_states"},
    {"difference.subsumption_pruned", "automata.subsumption_pruned"},
    {"perf.intern_hits", "automata.intern_hits"},
    {"perf.intern_misses", "automata.intern_misses"},
    {"nonterm.cegis_rounds", "nontermination.cegis_rounds"},
    {"perf.cache_hits", "cache.hits"},
    {"perf.cache_misses", "cache.misses"},
    {"perf.cache_inserts", "cache.inserts"},
    {"perf.cache_validation_failures", "cache.validation_failures"},
};

} // namespace

void termcheck::perfbench::addAnalyzerLayers(LayerSums &L,
                                             const Statistics &S) {
  double Covered = 0;
  for (const auto &[Stat, Layer] : TimerLayers) {
    L.add(Layer, S.getTime(Stat));
    Covered += S.getTime(Stat);
  }
  L.add("termination.covered_s", Covered);
  for (const auto &[Stat, Layer] : CounterLayers)
    L.add(Layer, static_cast<double>(S.get(Stat)));
  L.add("automata.intern_lookups",
        static_cast<double>(S.get("perf.intern_hits") +
                            S.get("perf.intern_misses")));
  L.add("cache.lookups", static_cast<double>(S.get("perf.cache_hits") +
                                             S.get("perf.cache_misses")));
}

void termcheck::perfbench::analyzerLayerMetrics(
    std::map<std::string, double> &Out, const LayerSums &L) {
  for (const auto &[Stat, Layer] : TimerLayers)
    Out[Layer] = L.total(Layer);
  for (const auto &[Stat, Layer] : CounterLayers)
    Out[Layer] = L.total(Layer);
  for (const char *Key : {"program.parse_s", "termination.run_s"})
    Out[Key] = L.total(Key);
  Out["termination.generalize_share"] =
      L.ratio("termination.generalize_s", "termination.run_s");
  Out["termination.layer_coverage"] =
      L.ratio("termination.covered_s", "termination.run_s");
  Out["automata.intern_hit_ratio"] =
      L.ratio("automata.intern_hits", "automata.intern_lookups");
  Out["cache.hit_ratio"] = L.ratio("cache.hits", "cache.lookups");
}

uint64_t SpanLog::add(uint64_t TraceId, uint64_t Parent,
                      const std::string &Name, double Start, double End) {
  uint64_t Id = Spans.size() + 1;
  Spans.push_back({TraceId, Id, Parent, Name, Start, End});
  return Id;
}

void SpanLog::deriveAnalyzerSpans(uint64_t TraceId, uint64_t Parent,
                                  double Offset,
                                  const std::vector<TraceEvent> &Events) {
  double Prev = 0, NontermStart = -1;
  for (const TraceEvent &E : Events) {
    const char *Name = nullptr;
    switch (E.Kind) {
    case TraceEventKind::LassoSampled:
      Name = "sample";
      break;
    case TraceEventKind::LassoProved:
      Name = "prove";
      break;
    case TraceEventKind::ModuleBuilt:
      Name = "generalize";
      break;
    case TraceEventKind::Subtraction:
      Name = "subtract";
      break;
    case TraceEventKind::NontermAttempt:
      NontermStart = E.AtSeconds;
      break;
    case TraceEventKind::NontermResult:
      if (NontermStart >= 0)
        add(TraceId, Parent, "nonterm", Offset + NontermStart,
            Offset + E.AtSeconds);
      NontermStart = -1;
      Prev = E.AtSeconds;
      break;
    case TraceEventKind::VerdictReached:
      Name = "conclude";
      break;
    default:
      break;
    }
    if (!Name)
      continue;
    add(TraceId, Parent, Name, Offset + Prev, Offset + E.AtSeconds);
    Prev = E.AtSeconds;
  }
}

bool SpanLog::write(const std::string &Path) const {
  std::ofstream OS(Path);
  for (const Span &S : Spans) {
    json::Writer W(OS, /*Pretty=*/false);
    W.beginObject();
    W.field("trace", static_cast<int64_t>(S.TraceId));
    W.field("span", static_cast<int64_t>(S.Id));
    W.field("parent", static_cast<int64_t>(S.Parent));
    W.field("name", S.Name);
    W.field("start_s", S.Start);
    W.field("end_s", S.End);
    W.endObject();
    W.finish();
  }
  return static_cast<bool>(OS);
}

bool Rows::write(const std::string &Path) const {
  std::ofstream OS(Path);
  for (const std::string &L : Lines)
    OS << L << "\n";
  return static_cast<bool>(OS);
}
