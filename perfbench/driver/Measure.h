//===- perfbench/driver/Measure.h - Metrics, rows and spans ---*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What a workload records while it runs and how the records become the
/// reported metrics:
///
///  * TaskRecord / Tally: per-task verdict times and outcomes, from which
///    the end-to-end metrics (solved share, verdict-time percentiles,
///    solved-only wall) are computed.
///  * LayerSums: layer quantities of traced executions; a per-layer metric
///    sums, over tasks, each task's median execution (one corpus pass).
///  * SpanLog: spans kept in memory (name, start, end, parent, trace id)
///    and written out as JSONL when the run ends.
///  * Rows: one JSON object per task execution, written at exit.
///
/// The metric schema (names and units of every end-to-end and per-layer
/// metric) lives here too, so every workload prints the same names.
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_PERFBENCH_MEASURE_H
#define TERMCHECK_PERFBENCH_MEASURE_H

#include "Corpus.h"
#include "support/Statistics.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace termcheck {
namespace perfbench {

/// Linear-interpolation quantile (Q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

/// Returns freed heap pages to the system and resets this process's
/// peak-resident mark (Linux clear_refs "5"), so that peakRssSelfMb() then
/// reports the peak since this call.
void resetPeakRss();
/// Peak resident set of this process (VmHWM) since the start or the last
/// resetPeakRss(), in MiB.
double peakRssSelfMb();

/// "setup: median X s of N (min .., max ..)" for the note lines.
std::string setupNote(const std::vector<double> &Times);

/// One metric's name and unit.
struct MetricSpec {
  std::string Name;
  std::string Unit;
};

/// The end-to-end metrics every workload prints with tracing off.
const std::vector<MetricSpec> &endToEndSchema();
/// The per-layer metrics every workload prints with tracing on (layers a
/// workload does not exercise read 0).
const std::vector<MetricSpec> &perLayerSchema();

/// Verdict times and the worst outcome of one task across passes.
struct TaskRecord {
  std::vector<double> Seconds;
  Outcome Worst = Outcome::Solved;
};

/// Run-wide counts of task executions.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// The first few error diagnostics (printed to stderr).
  std::vector<std::string> Errors;

  /// Records one execution of \p T that took \p Seconds, with outcome \p O
  /// (and \p Why on Error), into this tally and \p Rec.
  void record(const Task &T, Outcome O, const std::string &Why,
              TaskRecord &Rec, double Seconds);
};

/// How a task's executions reduce to its time to verdict.
enum class PerTask : uint8_t {
  /// The fastest execution: for single-threaded analysis, interference on a
  /// shared host only ever adds time.
  Fastest,
  /// The median execution: for concurrent work, the spread of one task's
  /// times is behaviour (scheduling, the sandbox supervisor's polling), not
  /// only noise.
  Median,
};

/// One task's time to verdict: its executions reduced per \p Reduce.
double reduceTimes(const TaskRecord &R, PerTask Reduce);

/// Fills the per-task metrics shared by every workload: solved_frac,
/// error_frac, verdict_p50_s, verdict_p90_s and solved_wall_s.
void addVerdictMetrics(std::map<std::string, double> &Out,
                       const std::vector<TaskRecord> &Records, PerTask Reduce);

/// Layer quantities of traced executions. Each task is one unit; the
/// values of one execution are summed per key, and a per-layer metric is
/// the sum over units of each unit's median execution. Quantities that
/// belong to a whole pass (server counters) use the unit PassUnit.
class LayerSums {
public:
  static constexpr size_t PassUnit = static_cast<size_t>(-1);

  /// Starts one execution of \p Unit; add() then fills it.
  void begin(size_t Unit) { Current = &Units[Unit].emplace_back(); }
  void add(const std::string &Key, double V) { (*Current)[Key] += V; }
  /// Sum over units of the median over the unit's executions of \p Key.
  double total(const std::string &Key) const;
  /// total(Num) / total(Den), or 0 when the denominator is 0.
  double ratio(const std::string &Num, const std::string &Den) const;

private:
  std::map<size_t, std::vector<std::map<std::string, double>>> Units;
  std::map<std::string, double> *Current = nullptr;
};

/// Adds the termination/automata/nontermination/program layer sums of one
/// analysis (timers and counters of \p S) into the current execution.
void addAnalyzerLayers(LayerSums &L, const Statistics &S);
/// Turns the analyzer layer sums into per-layer metrics.
void analyzerLayerMetrics(std::map<std::string, double> &Out,
                          const LayerSums &L);

/// In-memory spans, written out at exit.
class SpanLog {
public:
  /// Seconds since the run started.
  double now() const { return Epoch.seconds(); }
  /// Records a finished span and \returns its id (0 is "no parent").
  uint64_t add(uint64_t TraceId, uint64_t Parent, const std::string &Name,
               double Start, double End);
  /// Opens a span whose end is set later by close().
  uint64_t open(uint64_t TraceId, uint64_t Parent, const std::string &Name) {
    double T = now();
    return add(TraceId, Parent, Name, T, T);
  }
  void close(uint64_t Id) { Spans[Id - 1].End = now(); }
  /// Derives the sample -> prove -> generalize -> subtract spans of one
  /// analyzer run from consecutive LassoSampled, LassoProved, ModuleBuilt
  /// and Subtraction timestamps (plus nonterm from the NontermAttempt /
  /// NontermResult pair). \p Offset maps the trace epoch onto now().
  void deriveAnalyzerSpans(uint64_t TraceId, uint64_t Parent, double Offset,
                           const std::vector<TraceEvent> &Events);
  bool write(const std::string &Path) const;

private:
  struct Span {
    uint64_t TraceId, Id, Parent;
    std::string Name;
    double Start, End;
  };
  Timer Epoch;
  std::vector<Span> Spans;
};

/// Per-execution rows (one JSON object each), written out at exit.
class Rows {
public:
  void add(std::string JsonObject) { Lines.push_back(std::move(JsonObject)); }
  bool write(const std::string &Path) const;

private:
  std::vector<std::string> Lines;
};

/// Where a run writes its rows and spans, and how it was invoked.
struct RunContext {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Traced = false;
  /// Repository root (the on-disk corpus lives under it).
  std::string Root;
  /// Directory for rows, spans and scratch files of this run.
  std::string OutDir;
  /// The termcheckd binary (daemon-batch).
  std::string Daemon;
  /// Concurrency: portfolio threads / outstanding daemon requests.
  unsigned Width = 1;
};

/// Everything a workload hands back to main.
struct WorkloadResult {
  Tally Counts;
  /// Metric name -> value; main prints the schema subset it asks for.
  std::map<std::string, double> Metrics;
  /// Human-readable lines (sample counts, coverage) printed before the
  /// result line.
  std::vector<std::string> Notes;
};

WorkloadResult runAnalyzeSeq(const RunContext &Ctx, SpanLog &Spans,
                             Rows &Out);
WorkloadResult runPortfolioRace(const RunContext &Ctx, SpanLog &Spans,
                                Rows &Out);
WorkloadResult runDaemonBatch(const RunContext &Ctx, SpanLog &Spans,
                              Rows &Out);

} // namespace perfbench
} // namespace termcheck

#endif // TERMCHECK_PERFBENCH_MEASURE_H
