//===- support/Trace.h - Typed trace events and RAII spans ----*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event side of the observability layer: the refinement loop, the
/// portfolio runner, and the recurrence prover emit *typed* trace events
/// (iteration sampled, generalization stage reached, subtraction outcome,
/// CEGIS round, entrant spawned/finished/cancelled, ...) into a Trace
/// handle that forwards them to a pluggable sink.
///
/// Cost model: tracing must be free when disabled. Every producer holds a
/// `Trace *` that is null by default, and every emit site is guarded by
/// that null check *before any event payload is built* -- no strings are
/// formatted, no fields are allocated, no clock is read on the disabled
/// path. When enabled, the Trace stamps a monotonic timestamp relative to
/// its own epoch and forwards the event under a mutex, so one sink can be
/// shared by all racing portfolio workers.
///
/// Two sinks are provided: RecordingSink (in-memory, for tests and for
/// counting events into the run report) and JsonlSink (one JSON object
/// per line, the `termcheck --trace <file>` stream).
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_SUPPORT_TRACE_H
#define TERMCHECK_SUPPORT_TRACE_H

#include "support/Timer.h"

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

namespace termcheck {

/// Every kind of event the engine emits. Adding a kind is an additive,
/// report-schema-versioned change (see DESIGN.md section 11).
enum class TraceEventKind : uint8_t {
  SpanBegin,        ///< an RAII span opened (field: name)
  SpanEnd,          ///< an RAII span closed (fields: name, seconds)
  LassoSampled,     ///< refinement loop sampled a lasso word
  LassoProved,      ///< lasso prover returned (field: status)
  StageAttempt,     ///< one generalization stage tried (stage, accepted)
  ModuleBuilt,      ///< the chosen module (stage 0-4, kind, states)
  Subtraction,      ///< one difference construction finished or degraded
  FaultContained,   ///< a recoverable EngineError was absorbed
  CegisRound,       ///< one recurrence-prover closure refinement round
  NontermAttempt,   ///< the recurrence prover started on a lasso
  NontermResult,    ///< ... and finished (field: outcome)
  EntrantSpawn,     ///< a portfolio entrant started running
  EntrantResult,    ///< ... finished with a verdict
  EntrantFault,     ///< ... was quarantined (field: kind)
  RaceDecided,      ///< the shared token was cancelled by a winner
  VerdictReached,   ///< a run's final verdict
  WorkerSpawn,      ///< a sandboxed termcheckd worker forked (job, pid)
  WorkerExit,       ///< ... exited; fields carry the classification
  WorkerKill,       ///< the supervisor signalled a worker (signal)
  WorkerRetry,      ///< a crashed/OOM-killed attempt is being retried
  WorkerQuarantine, ///< a program shape entered the crash-loop quarantine
};

/// Short stable name of an event kind (the `"event"` field of the JSONL
/// stream and the keys tests match on).
const char *traceEventKindName(TraceEventKind K);

/// One typed event: a kind, a timestamp, and a flat list of fields. Field
/// keys are string literals at every emit site, so events carry no key
/// allocations.
struct TraceEvent {
  using FieldValue = std::variant<int64_t, double, std::string, bool>;

  TraceEventKind Kind;
  /// Seconds since the owning Trace's epoch (stamped by Trace::emit).
  double AtSeconds = 0;
  std::vector<std::pair<const char *, FieldValue>> Fields;

  explicit TraceEvent(TraceEventKind K) : Kind(K) {}

  TraceEvent &with(const char *Key, int64_t V) { return add(Key, V); }
  TraceEvent &with(const char *Key, uint64_t V) {
    return add(Key, static_cast<int64_t>(V));
  }
  TraceEvent &with(const char *Key, int V) {
    return add(Key, static_cast<int64_t>(V));
  }
  TraceEvent &with(const char *Key, double V) { return add(Key, V); }
  TraceEvent &with(const char *Key, bool V) { return add(Key, V); }
  TraceEvent &with(const char *Key, std::string V) {
    return add(Key, std::move(V));
  }
  TraceEvent &with(const char *Key, const char *V) {
    return add(Key, std::string(V));
  }

  /// \returns the field \p Key or nullptr (test helper).
  const FieldValue *find(const char *Key) const;

private:
  /// Builds the value inside the vector: moving a temporary FieldValue in
  /// made GCC 12 report its string alternative as maybe-uninitialized.
  template <typename T> TraceEvent &add(const char *Key, T &&V) {
    Fields.emplace_back(std::piecewise_construct, std::forward_as_tuple(Key),
                        std::forward_as_tuple(std::forward<T>(V)));
    return *this;
  }
};

/// Where events go. Implementations need no internal locking: Trace
/// serializes consume() calls under its own mutex.
class TraceSink {
public:
  virtual ~TraceSink() = default;
  virtual void consume(const TraceEvent &E) = 0;
};

/// The handle producers hold (always by plain pointer; null = disabled).
/// Thread-safe: portfolio workers share one Trace.
class Trace {
public:
  explicit Trace(TraceSink &Sink) : Sink(Sink) {}

  /// Stamps \p E against this trace's epoch and forwards it.
  void emit(TraceEvent E) {
    E.AtSeconds = Epoch.seconds();
    std::lock_guard<std::mutex> Lock(M);
    ++Count;
    Sink.consume(E);
  }

  /// Events forwarded so far (the run report's `trace_events` count).
  uint64_t eventCount() const {
    std::lock_guard<std::mutex> Lock(M);
    return Count;
  }

private:
  TraceSink &Sink;
  Timer Epoch;
  mutable std::mutex M;
  uint64_t Count = 0;
};

/// RAII span: emits SpanBegin on construction and SpanEnd (with the
/// measured duration) on scope exit. Null-trace construction is free.
class TraceSpan {
public:
  TraceSpan(Trace *T, const char *Name) : T(T), Name(Name) {
    if (T)
      T->emit(TraceEvent(TraceEventKind::SpanBegin).with("name", Name));
  }
  ~TraceSpan() {
    if (T)
      T->emit(TraceEvent(TraceEventKind::SpanEnd)
                  .with("name", Name)
                  .with("seconds", Watch.seconds()));
  }
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

private:
  Trace *T;
  const char *Name;
  Timer Watch;
};

/// In-memory sink for tests and report event counting.
class RecordingSink : public TraceSink {
public:
  void consume(const TraceEvent &E) override { Events.push_back(E); }

  const std::vector<TraceEvent> &events() const { return Events; }

  /// \returns how many recorded events have kind \p K.
  size_t count(TraceEventKind K) const {
    size_t N = 0;
    for (const TraceEvent &E : Events)
      if (E.Kind == K)
        ++N;
    return N;
  }

private:
  std::vector<TraceEvent> Events;
};

/// Streams each event as one compact JSON object per line:
///   {"at_s":0.000123,"event":"subtraction","product_states":42,...}
/// Timestamps and double fields use the deterministic fixed-precision
/// formatter of support/Json.h.
class JsonlSink : public TraceSink {
public:
  explicit JsonlSink(std::ostream &OS) : OS(OS) {}
  void consume(const TraceEvent &E) override;

private:
  std::ostream &OS;
};

} // namespace termcheck

#endif // TERMCHECK_SUPPORT_TRACE_H
