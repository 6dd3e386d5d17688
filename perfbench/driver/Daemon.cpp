//===- perfbench/driver/Daemon.cpp - daemon-batch workload ----------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// The daemon-batch workload drives a real termcheckd child over its NDJSON
/// protocol on one stdio connection. The daemon runs at its CLI defaults
/// (auto isolation: every non-deterministic job runs in a forked sandbox
/// worker) with --module-cache on a fresh directory for each pass, so each
/// pass is a cold cache that the pass itself fills and reads.
///
/// Set-up is timed on separate probe daemons: start, health reply, one
/// warm-up job. One pass: start a daemon, then
/// submit the seeded batchPrograms corpus as a closed loop with Width jobs
/// outstanding, timing each job from sending its submit line to reading
/// its result line; then read {"op":"stats"} and {"op":"health"}, close
/// stdin and reap the daemon. A sampler thread tracks the resident memory
/// of the daemon and its live workers. Verdicts are checked against the
/// generator's exact oracles (the protocol ships no modules or
/// certificates, so evidence re-validation is left to the in-process
/// workloads).
///
//===----------------------------------------------------------------------===//

#include "Measure.h"

#include "support/Json.h"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <poll.h>
#include <spawn.h>
#include <sstream>
#include <stdexcept>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char **environ;

using namespace termcheck;
using namespace termcheck::perfbench;

namespace {

/// Jobs per pass.
constexpr size_t BatchCount = 400;
/// Longest wait for any one daemon line before the pass is abandoned.
constexpr int ReadTimeoutMs = 60000;
/// Set-up probes before the first pass; one more follows every pass, so
/// the samples span the run. setup_s is their median.
constexpr int SetupProbes = 8;

/// A termcheckd child on a stdin/stdout pipe pair. The destructor kills
/// and reaps a child that is still running.
class DaemonProcess {
public:
  DaemonProcess(const std::string &Path, const std::vector<std::string> &Args,
                const std::string &StderrPath) {
    int InPipe[2], OutPipe[2];
    if (pipe2(InPipe, O_CLOEXEC) != 0 || pipe2(OutPipe, O_CLOEXEC) != 0)
      throw std::runtime_error("pipe: " + std::string(std::strerror(errno)));
    posix_spawn_file_actions_t FA;
    posix_spawn_file_actions_init(&FA);
    posix_spawn_file_actions_adddup2(&FA, InPipe[0], 0);
    posix_spawn_file_actions_adddup2(&FA, OutPipe[1], 1);
    posix_spawn_file_actions_addopen(&FA, 2, StderrPath.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::vector<char *> Argv;
    Argv.push_back(const_cast<char *>(Path.c_str()));
    for (const std::string &A : Args)
      Argv.push_back(const_cast<char *>(A.c_str()));
    Argv.push_back(nullptr);
    int Err = posix_spawn(&Pid, Path.c_str(), &FA, nullptr, Argv.data(),
                          environ);
    posix_spawn_file_actions_destroy(&FA);
    close(InPipe[0]);
    close(OutPipe[1]);
    In = InPipe[1];
    Out = OutPipe[0];
    if (Err != 0) {
      Pid = -1;
      close(In);
      close(Out);
      throw std::runtime_error("cannot start " + Path + ": " +
                               std::strerror(Err));
    }
  }
  ~DaemonProcess() {
    if (In >= 0)
      close(In);
    if (Out >= 0)
      close(Out);
    if (Pid > 0) {
      kill(Pid, SIGKILL);
      waitpid(Pid, nullptr, 0);
    }
  }
  DaemonProcess(const DaemonProcess &) = delete;
  DaemonProcess &operator=(const DaemonProcess &) = delete;

  pid_t pid() const { return Pid; }

  void send(const std::string &Line) {
    std::string Buf = Line + "\n";
    size_t Done = 0;
    while (Done < Buf.size()) {
      ssize_t N = write(In, Buf.data() + Done, Buf.size() - Done);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        throw std::runtime_error("daemon stdin closed");
      Done += static_cast<size_t>(N);
    }
  }

  /// Reads one line; \returns false at end of stream. Throws when no line
  /// arrives within ReadTimeoutMs.
  bool readLine(std::string &Line) {
    while (true) {
      size_t NL = Buffer.find('\n');
      if (NL != std::string::npos) {
        Line = Buffer.substr(0, NL);
        Buffer.erase(0, NL + 1);
        return true;
      }
      struct pollfd P = {Out, POLLIN, 0};
      int R = poll(&P, 1, ReadTimeoutMs);
      if (R < 0 && errno == EINTR)
        continue;
      if (R == 0)
        throw std::runtime_error("daemon sent nothing for 60 s");
      char Chunk[65536];
      ssize_t N = read(Out, Chunk, sizeof(Chunk));
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Buffer.append(Chunk, static_cast<size_t>(N));
    }
  }

  /// Closes stdin (a graceful drain), reads the remaining output and reaps
  /// the daemon. \returns its exit status.
  int finish() {
    close(In);
    In = -1;
    for (std::string L; readLine(L);) {
    }
    int Status = 0;
    waitpid(Pid, &Status, 0);
    Pid = -1;
    return Status;
  }

private:
  pid_t Pid = -1;
  int In = -1, Out = -1;
  std::string Buffer;
};

/// Sum of the \p Keys fields of /proc/<Pid>/\p File, in MiB (0 when the
/// process is gone).
double procMiB(pid_t Pid, const char *File,
               std::initializer_list<const char *> Keys) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/" + File);
  double KiB = 0;
  for (std::string Key; In >> Key;) {
    for (const char *K : Keys)
      if (Key == K) {
        double V = 0;
        In >> V;
        KiB += V;
      }
    In.ignore(1 << 16, '\n');
  }
  return KiB / 1024.0;
}

/// Estimates the peak memory of the daemon and its sandbox workers: the
/// daemon's own peak resident set, plus Width times the median worker's
/// peak private memory (the pages a forked worker does not share with the
/// daemon). Workers live for milliseconds, so how many of them one sample
/// catches at once is luck; a thread samples each live worker every few
/// milliseconds to find its peak.
class MemorySampler {
public:
  MemorySampler(pid_t Pid, unsigned Width)
      : Pid(Pid), Width(Width), Worker([this] { loop(); }) {}
  ~MemorySampler() { stop(); }
  MemorySampler(const MemorySampler &) = delete;
  MemorySampler &operator=(const MemorySampler &) = delete;

  /// Stops sampling; \returns the estimate in MiB. Call while the daemon
  /// is still running.
  double stop() {
    Stop = true;
    if (Worker.joinable())
      Worker.join();
    std::vector<double> Workers;
    for (const auto &[Child, Peak] : WorkerPeaks)
      Workers.push_back(Peak);
    return procMiB(Pid, "status", {"VmHWM:"}) + Width * median(Workers);
  }

private:
  void loop() {
    const std::string Tasks = "/proc/" + std::to_string(Pid) + "/task";
    while (!Stop) {
      std::error_code EC;
      for (const auto &T : std::filesystem::directory_iterator(Tasks, EC)) {
        std::ifstream Children(T.path() / "children");
        for (long Child; Children >> Child;) {
          double &Peak = WorkerPeaks[Child];
          Peak = std::max(Peak, procMiB(static_cast<pid_t>(Child),
                                        "smaps_rollup",
                                        {"Private_Clean:", "Private_Dirty:"}));
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  pid_t Pid;
  unsigned Width;
  std::atomic<bool> Stop{false};
  /// Worker pid -> its peak. Pids may be reused within a pass; a reused pid
  /// then counts as one worker with the larger peak.
  std::map<long, double> WorkerPeaks;
  std::thread Worker;
};

double number(const json::Value *V) {
  return V && V->isNumber() ? V->Num : 0.0;
}

json::Value parseLine(const std::string &Line) {
  json::Value V;
  std::string Err;
  if (!json::parse(Line, V, &Err) || !V.isObject())
    throw std::runtime_error("unparsable daemon line: " + Line);
  return V;
}

std::string typeOf(const json::Value &V) {
  const json::Value *T = V.find("type");
  return T && T->isString() ? T->Str : "";
}

/// Sends \p Request and reads lines until one of type \p Type arrives.
json::Value ask(DaemonProcess &D, const std::string &Request,
                const std::string &Type) {
  D.send(Request);
  for (std::string Line; D.readLine(Line);) {
    json::Value V = parseLine(Line);
    if (typeOf(V) == Type)
      return V;
  }
  throw std::runtime_error("daemon closed before its " + Type + " reply");
}

std::string submitLine(const std::string &Id, const Task &T) {
  std::ostringstream OS;
  json::Writer W(OS, /*Pretty=*/false);
  W.beginObject();
  W.field("op", "submit");
  W.field("id", Id);
  W.field("program", T.Source);
  W.endObject();
  return OS.str();
}

/// The analyzer statistics a result report carries (counters + timers).
Statistics reportStats(const json::Value &Report) {
  Statistics S;
  if (const json::Value *C = Report.find("counters"))
    for (const auto &[K, V] : C->Obj)
      S.add(K, static_cast<int64_t>(V.Num));
  if (const json::Value *T = Report.find("timers_s"))
    for (const auto &[K, V] : T->Obj)
      S.addTime(K, V.Num);
  return S;
}

/// Starts a daemon on a fresh module-cache directory \p Tag.cache and
/// waits for its health reply.
std::unique_ptr<DaemonProcess> startDaemon(const RunContext &Ctx,
                                           const std::string &Tag,
                                           bool Traced) {
  std::filesystem::remove_all(Tag + ".cache");
  std::vector<std::string> Args = {"--module-cache", Tag + ".cache"};
  if (Traced) {
    Args.push_back("--trace");
    Args.push_back(Tag + ".trace.jsonl");
  }
  auto D = std::make_unique<DaemonProcess>(Ctx.Daemon, Args, Tag + ".stderr");
  ask(*D, "{\"op\":\"health\"}", "health");
  return D;
}

/// Drains and reaps \p D and removes its cache directory.
void stopDaemon(DaemonProcess &D, const std::string &Tag) {
  int Status = D.finish();
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    throw std::runtime_error("termcheckd did not exit cleanly");
  std::filesystem::remove_all(Tag + ".cache");
}

/// Times one set-up: start a daemon on a fresh cache directory, wait for
/// its health reply, and have it answer one warm-up job -- the time until
/// a new daemon has served its first job. The warm-up program is fixed and
/// trivial: a seeded corpus program would make set-up time depend on the
/// seed. The probe daemon is separate from the pass daemons, so the
/// warm-up never warms a pass's cache.
double probeSetup(const RunContext &Ctx) {
  static const Task WarmUp = {
      "warmup", "setup",
      "program warmup(i) {\n  while (i > 0) { i := i - 1; }\n}\n",
      Expected::Terminating, false};
  const std::string Tag =
      Ctx.OutDir + "/daemon-seed" + std::to_string(Ctx.Seed) + "-probe";
  Timer Setup;
  std::unique_ptr<DaemonProcess> D = startDaemon(Ctx, Tag, false);
  json::Value R = ask(*D, submitLine("warmup", WarmUp), "result");
  const double Seconds = Setup.seconds();
  const json::Value *Status = R.find("status");
  if (!Status || Status->Str != "finished")
    throw std::runtime_error("warm-up job did not finish");
  stopDaemon(*D, Tag);
  return Seconds;
}

/// Measurements of one pass.
struct PassResult {
  double Wall = 0;
  double PeakMb = 0;
};

PassResult runPass(const RunContext &Ctx, const std::vector<Task> &Tasks,
                   size_t Pass, bool Traced, Tally &Counts,
                   std::vector<TaskRecord> &Records, LayerSums &Layers,
                   SpanLog &Spans, Rows &Out, uint64_t &TraceId) {
  PassResult PR;
  const std::string Tag = Ctx.OutDir + "/daemon-seed" +
                          std::to_string(Ctx.Seed) + "-pass" +
                          std::to_string(Pass);
  std::unique_ptr<DaemonProcess> D = startDaemon(Ctx, Tag, Traced);

  MemorySampler Memory(D->pid(), Ctx.Width);
  std::vector<double> SentAt(Tasks.size(), 0);
  size_t Sent = 0, Done = 0;
  TaskRecord Scratch;

  Timer Clock;
  while (Done < Tasks.size()) {
    // Width jobs outstanding; the queue (64 by default) never fills, so a
    // rejection is a final refusal.
    for (; Sent < Tasks.size() && Sent - Done < Ctx.Width; ++Sent) {
      SentAt[Sent] = Spans.now();
      D->send(submitLine(std::to_string(Sent), Tasks[Sent]));
    }
    std::string Line;
    if (!D->readLine(Line))
      throw std::runtime_error("daemon exited mid-pass");
    const double Now = Spans.now();
    json::Value V = parseLine(Line);
    const std::string Type = typeOf(V);
    if (Type != "result" && Type != "rejected")
      continue;
    const json::Value *IdV = V.find("id");
    if (!IdV || !IdV->isString())
      throw std::runtime_error("daemon line without a job id: " + Line);
    const size_t I = std::stoul(IdV->Str);
    if (I >= Tasks.size())
      throw std::runtime_error("unknown job id in: " + Line);
    const Task &T = Tasks[I];

    const double Seconds = Now - SentAt[I];
    ++Done;
    TaskRecord &Rec = Traced ? Scratch : Records[I];
    if (Type == "rejected") {
      Counts.record(T, Outcome::Error, "refused: " + Line, Rec, Seconds);
      continue;
    }

    const json::Value *Status = V.find("status");
    const json::Value *VerdictV = V.find("verdict");
    const json::Value *Report = V.find("report");
    std::string Why;
    Outcome O = Outcome::Error;
    Verdict Got = Verdict::Unknown;
    if (!Status || Status->Str != "finished")
      Why = "job status " + (Status ? Status->Str : std::string("missing"));
    else if (!VerdictV || !verdictFromName(VerdictV->Str, Got) || !Report)
      Why = "result without a verdict";
    else
      O = judge(T, Got, Why);
    Counts.record(T, O, Why, Rec, Seconds);

    const double QueueS = number(V.find("queue_s"));
    const double RunS = number(V.find("run_s"));
    const double AnalysisS = Report ? number(Report->find("wall_s")) : 0.0;
    if (Traced) {
      ++TraceId;
      Layers.begin(I);
      Spans.add(TraceId, 0, "request", SentAt[I], Now);
      Layers.add("server.queue_s", QueueS);
      Layers.add("server.sandbox_s", RunS - AnalysisS);
      Layers.add("server.analysis_s", AnalysisS);
      Layers.add("server.transport_s", Seconds - QueueS - RunS);
      Layers.add("termination.run_s", AnalysisS);
      if (Report)
        addAnalyzerLayers(Layers, reportStats(*Report));
    }

    std::ostringstream OS;
    json::Writer W(OS, /*Pretty=*/false);
    W.beginObject();
    W.field("workload", Ctx.Workload);
    W.field("seed", static_cast<int64_t>(Ctx.Seed));
    W.field("pass", static_cast<int64_t>(Pass));
    W.field("traced", Traced);
    W.field("task", T.Name);
    W.field("origin", T.Origin);
    W.field("verdict", VerdictV && VerdictV->isString() ? VerdictV->Str
                                                        : std::string(""));
    W.field("outcome", O == Outcome::Solved ? "solved" : "error");
    if (!Why.empty())
      W.field("error", Why);
    W.field("seconds", Seconds);
    W.field("queue_s", QueueS);
    W.field("run_s", RunS);
    W.field("analysis_s", AnalysisS);
    W.endObject();
    Out.add(OS.str());
  }
  PR.Wall = Clock.seconds();

  json::Value Stats = ask(*D, "{\"op\":\"stats\"}", "stats");
  json::Value Health = ask(*D, "{\"op\":\"health\"}", "health");
  PR.PeakMb = Memory.stop();
  if (Traced) {
    const json::Value *Sandbox = Health.find("sandbox");
    Layers.begin(LayerSums::PassUnit);
    Layers.add("server.queue_full", number(Stats.find("rejected_queue_full")));
    Layers.add("server.worker_spawns",
               Sandbox ? number(Sandbox->find("spawned")) : 0.0);
    Layers.add("server.worker_retries",
               Sandbox ? number(Sandbox->find("retries")) : 0.0);
  }
  stopDaemon(*D, Tag);
  return PR;
}

} // namespace

WorkloadResult termcheck::perfbench::runDaemonBatch(const RunContext &Ctx,
                                                    SpanLog &Spans,
                                                    Rows &Out) {
  // A daemon that dies mid-pass must surface as an error, not a SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  const std::vector<Task> Tasks = batchDraw(Ctx.Seed, BatchCount);

  WorkloadResult Res;
  std::vector<TaskRecord> Records(Tasks.size());
  LayerSums Layers;
  std::vector<double> Setups, PlainWalls, TracedWalls, Peaks;
  const size_t MinPasses = Ctx.Traced ? 2 : 1;
  uint64_t TraceId = 0;
  for (int I = 0; I < SetupProbes; ++I)
    Setups.push_back(probeSetup(Ctx));
  Timer Clock;
  for (size_t Pass = 0; Pass < MinPasses || Clock.seconds() < Ctx.Seconds;
       ++Pass) {
    const bool Traced = Ctx.Traced && Pass % 2 == 1;
    PassResult P = runPass(Ctx, Tasks, Pass, Traced, Res.Counts, Records,
                           Layers, Spans, Out, TraceId);
    (Traced ? TracedWalls : PlainWalls).push_back(P.Wall);
    Setups.push_back(probeSetup(Ctx));
    if (!Traced)
      Peaks.push_back(P.PeakMb);
  }

  addVerdictMetrics(Res.Metrics, Records, PerTask::Median);
  double Wall = 0;
  for (double W : PlainWalls)
    Wall += W;
  Res.Metrics["tasks_per_s"] =
      static_cast<double>(Tasks.size() * PlainWalls.size()) / Wall;
  Res.Metrics["setup_s"] = median(Setups);
  Res.Notes.push_back(setupNote(Setups));
  Res.Metrics["peak_rss_mb"] = median(Peaks);
  Res.Notes.push_back(
      "jobs per pass " + std::to_string(Tasks.size()) + ", outstanding " +
      std::to_string(Ctx.Width) + ", untraced passes " +
      std::to_string(PlainWalls.size()) + ", traced passes " +
      std::to_string(TracedWalls.size()) + "; verdict percentiles over " +
      std::to_string(Tasks.size()) + " per-job medians of " +
      std::to_string(PlainWalls.size()) + " round trips each");
  if (Ctx.Traced) {
    analyzerLayerMetrics(Res.Metrics, Layers);
    for (const char *Key :
         {"server.queue_s", "server.sandbox_s", "server.analysis_s",
          "server.transport_s", "server.queue_full", "server.worker_spawns",
          "server.worker_retries"})
      Res.Metrics[Key] = Layers.total(Key);
    Res.Metrics["trace.overhead_frac"] =
        median(TracedWalls) / median(PlainWalls) - 1.0;
  }
  return Res;
}
