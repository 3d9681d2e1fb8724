// perfbench — the repo benchmark.
//
// One invocation measures one workload of the full distributed RWBC
// pipeline: P0-P4 with scores at the paper's parameters (K = 4 log2 n,
// l = 2n), from the spec `rwbc_cli distributed` builds (its shared flags
// go through strip_pipeline_flags; bit floor 128).  It runs the pipeline
// repeatedly for a fixed wall-clock window, checks every run's output, and
// prints one JSON result as the last line of stdout:
//
//   rwbc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR
//
// --trace 0 reports the end-to-end metrics (times and memory as medians
// over the window's runs, counts and accuracy as means over the inputs);
// --trace 1 adds one traced run after the window and reports the
// per-layer metrics.  README.md documents the workloads, every metric, and
// which layer moves which end-to-end number; run.py builds this binary.
//
// Every pipeline run executes in a freshly forked process (in_child): its
// peak RSS starts from a clean high-water mark, getrusage(RUSAGE_CHILDREN)
// inside it sees exactly that run's shard workers, and neither heap left by
// an earlier run nor the accuracy oracle's n x n matrix reaches the next
// run's memory figure.  The parent never starts a thread, so forking is safe.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "centrality/current_flow_exact.hpp"
#include "centrality/ranking.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "rwbc/params.hpp"
#include "rwbc/pipeline.hpp"

namespace {

using namespace rwbc;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// --- workloads ---------------------------------------------------------------

/// One workload: a graph family and size plus the run mode that sends the
/// counting phase P3 down one delivery path of Network::run.  README.md
/// records why each exists.
struct Workload {
  std::string_view name;
  std::string_view family;  ///< "ws" (k = 4, p = 0.2) or "ba" (m = 2)
  NodeId n;
  /// Shared pipeline flags, as they would follow `rwbc_cli`.
  std::vector<std::string> flags;
  /// Lossy runs also get --fault-seed (from --seed) and --checkpoint-dir
  /// (a fresh directory per run).
  bool lossy;
  int workers;  ///< threads or shards the run spreads over (busy_share)
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"serial-ws", "ws", 400, {"--threads", "0"}, false, 1},
      {"threads4-ba", "ba", 500, {"--threads", "4"}, false, 4},
      {"shards4-lossy-ws",
       "ws",
       160,
       {"--threads", "0", "--shards", "4", "--drop-prob", "0.02", "--handoff",
        "--checkpoint-every", "256"},
       true,
       4},
  };
  return all;
}

/// Inputs per invocation.  Runs on one input differ from another's by
/// about 5-10 % in rounds, messages and accuracy (the target's place in
/// the graph decides how soon walks are absorbed), so each invocation
/// rotates through several inputs and reports their mean.
constexpr std::size_t kInputs = 8;
/// Input builds per run; setup_s is their median.
constexpr int kSetupRepeats = 25;
/// Pipeline seeds tried per input for a target of the modal degree.
constexpr std::uint64_t kSeedScan = 64;

/// The workload's graph for a seed, as `rwbc_cli generate <family> <n>
/// <seed>` builds it.
Graph make_graph(const Workload& w, std::uint64_t seed) {
  Rng rng(seed);
  if (w.family == "ba") return make_barabasi_albert(w.n, 2, rng);
  return make_watts_strogatz(w.n, 4, 0.2, rng);
}

/// One input: input i of --seed s has graph seed kInputs * s + i, and its
/// pipeline seed is the first of the graph seed, graph seed + 1, ... whose
/// drawn target has the graph's most common degree.  The leader draws the
/// absorbing target from the pipeline seed, and the target's degree sets
/// how soon walks are absorbed, which swings P3's rounds, messages and time
/// several-fold (a BA hub target finishes far sooner than a leaf); fixing
/// the degree class lets seeds change the input, not the kind of run.
struct Input {
  std::uint64_t graph_seed = 0;
  std::uint64_t pipeline_seed = 0;
};

/// The spec of one run.  `serial_twin` keeps everything but runs in one
/// process on one thread: the bit-identity reference.
PipelineSpec make_spec(const Workload& w, const Input& in,
                       const fs::path& checkpoint_dir, bool serial_twin) {
  std::vector<std::string> flags = w.flags;
  if (w.lossy) {
    flags.insert(flags.end(), {"--fault-seed", std::to_string(in.graph_seed),
                               "--checkpoint-dir", checkpoint_dir.string()});
  }
  std::string program = "perfbench";
  std::vector<char*> args{program.data()};
  for (std::string& flag : flags) args.push_back(flag.data());
  PipelineSpec spec;
  strip_pipeline_flags(args, spec);
  RWBC_REQUIRE(args.size() == 1, "a workload flag is not a pipeline flag");
  spec.algorithm = "rwbc";
  spec.seed = in.pipeline_seed;
  spec.bit_floor = 128;  // rwbc_cli distributed's floor, so large K fits
  if (serial_twin) {
    spec.threads = 0;
    spec.shards = 1;
  }
  return spec;
}

// --- child processes ---------------------------------------------------------

template <typename T>
void append_pod(std::vector<std::uint8_t>& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

template <typename T>
T read_pod(const std::vector<std::uint8_t>& in, std::size_t& offset) {
  static_assert(std::is_trivially_copyable_v<T>);
  RWBC_REQUIRE(offset + sizeof(T) <= in.size(), "short record from a child");
  T value;
  std::memcpy(&value, in.data() + offset, sizeof(T));
  offset += sizeof(T);
  return value;
}

void append_doubles(std::vector<std::uint8_t>& out,
                    const std::vector<double>& values) {
  append_pod(out, static_cast<std::uint64_t>(values.size()));
  for (const double v : values) append_pod(out, v);
}

std::vector<double> read_doubles(const std::vector<std::uint8_t>& in,
                                 std::size_t& offset) {
  const auto count = read_pod<std::uint64_t>(in, offset);
  RWBC_REQUIRE(count <= (in.size() - offset) / sizeof(double),
               "short record from a child");
  std::vector<double> values(count);
  for (double& v : values) v = read_pod<double>(in, offset);
  return values;
}

/// Runs `body` in a forked child and returns the bytes it produced.  The
/// child reports its own error on stderr; a child that fails throws here.
std::vector<std::uint8_t> in_child(
    const std::function<std::vector<std::uint8_t>()>& body) {
  int fds[2];
  RWBC_REQUIRE(::pipe(fds) == 0,
               "pipe failed: " + std::string(std::strerror(errno)));
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw Error("fork failed: " + std::string(std::strerror(errno)));
  }
  if (pid == 0) {
    ::close(fds[0]);
    int code = 1;
    try {
      const std::vector<std::uint8_t> bytes = body();
      std::size_t done = 0;
      while (done < bytes.size()) {
        const ssize_t wrote =
            ::write(fds[1], bytes.data() + done, bytes.size() - done);
        if (wrote < 0 && errno == EINTR) continue;
        if (wrote <= 0) break;
        done += static_cast<std::size_t>(wrote);
      }
      code = done == bytes.size() ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
    } catch (...) {
      std::fprintf(stderr, "perfbench: run failed: unknown exception\n");
    }
    std::fflush(stderr);
    ::_exit(code);  // no atexit handlers or stdio replays in the child
  }
  ::close(fds[1]);
  std::vector<std::uint8_t> bytes;
  std::array<std::uint8_t, 1 << 16> buffer;
  while (true) {
    const ssize_t got = ::read(fds[0], buffer.data(), buffer.size());
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    bytes.insert(bytes.end(), buffer.begin(), buffer.begin() + got);
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw Error("child process failed (see stderr)");
  }
  return bytes;
}

// --- measurement helpers -----------------------------------------------------

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double median(std::vector<double> values) {
  RWBC_REQUIRE(!values.empty(), "median of nothing");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile, p in (0, 1]; 0 for no samples.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double cpu_seconds(int who) {
  rusage usage{};
  ::getrusage(who, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// Peak resident set in MB (2^20 bytes); ru_maxrss is in KB on Linux.
double max_rss_mb(int who) {
  rusage usage{};
  ::getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Current resident set in MB, from /proc/self/statm.
double current_rss_mb() {
  std::FILE* file = std::fopen("/proc/self/statm", "r");
  if (file == nullptr) return 0.0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int got = std::fscanf(file, "%llu %llu", &size, &resident);
  std::fclose(file);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / 1048576.0;
}

std::uint64_t scores_digest(const std::vector<double>& scores) {
  std::uint64_t digest = 0x5eedULL;
  for (const double s : scores) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &s, sizeof(bits));
    std::uint64_t state = digest ^ bits;
    digest = splitmix64(state);
  }
  return digest;
}

void fresh_directory(const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

NodeId modal_degree(const Graph& g) {
  std::vector<std::size_t> count(static_cast<std::size_t>(g.max_degree()) + 1);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    ++count[static_cast<std::size_t>(g.degree(v))];
  }
  return static_cast<NodeId>(std::max_element(count.begin(), count.end()) -
                             count.begin());
}

// --- one pipeline run --------------------------------------------------------

/// What one pipeline run reports back to the parent.
struct RunRecord {
  double wall_s = 0.0;   ///< the run_pipeline_result call
  double setup_s = 0.0;  ///< median of kSetupRepeats input builds
  double cpu_s = 0.0;    ///< all threads of the run plus its shard workers
  double peak_rss_mb = 0.0;  ///< largest of the run process and its workers
  RunMetrics total;
  RunMetrics election;
  RunMetrics bfs;
  RunMetrics dissemination;
  RunMetrics counting;
  RunMetrics computing;
  std::uint64_t walks_expected = 0;
  std::uint64_t walks_abandoned = 0;
  std::int64_t walks_lost = 0;
  bool walks_exact = false;
  std::uint64_t score_count = 0;
  bool scores_finite = false;
  std::uint64_t digest = 0;
  NodeId leader = -1;
  NodeId target = -1;
  std::uint64_t checkpoint_written = 0;
  std::uint64_t checkpoint_dropped = 0;
  std::uint64_t checkpoint_driver_ns = 0;
  std::uint64_t checkpoint_files = 0;  ///< snapshots left on disk
  std::uint64_t checkpoint_bytes = 0;  ///< their total size
};

constexpr std::array<const char*, 6> kPhaseNames = {"P0",  "P1", "P2a",
                                                    "P2b", "P3", "P4"};
constexpr int kCounting = 4;
constexpr int kComputing = 5;

struct Span {
  double start_s = 0.0;  ///< from the start of the pipeline call
  double end_s = 0.0;
  std::uint64_t rounds = 0;
  double seconds() const { return end_s - start_s; }
};

/// The traced run's extra output.
struct TraceRecord {
  std::array<Span, kPhaseNames.size()> phases{};
  Span export_span;
  std::uint64_t phase_count = 0;
  double protocols_round_us_p99 = 0.0;
  double counting_round_us_p50 = 0.0;
  double counting_round_us_p99 = 0.0;
  double counting_awake_per_round = 0.0;
  double rss_mb_counting_end = 0.0;
  double rss_mb_computing_end = 0.0;
};

/// Round observer of the traced run: one steady_clock read per round.  A
/// phase starts where the phase-local round number resets to 0 (P0, P1,
/// P2a, P2b, P3, P4 in order), so each span runs from the previous phase's
/// last round to its own last round and includes its Network set-up; the
/// span after P4's last round is the export.  Per-round times skip round 0,
/// which carries the set-up.  RSS is read only at the ends of P3 and P4,
/// whose round counts the reference run fixed in advance.
class Tracer {
 public:
  Tracer(std::uint64_t counting_rounds, std::uint64_t computing_rounds)
      : counting_rounds_(counting_rounds), computing_rounds_(computing_rounds) {
    counting_round_us_.reserve(counting_rounds);
  }

  void start(Clock::time_point t) { start_ = last_ = t; }

  void on_round(const RoundSnapshot& round) {
    const Clock::time_point now = Clock::now();
    if (round.round == 0) {
      RWBC_REQUIRE(phase_ + 1 < static_cast<int>(kPhaseNames.size()),
                   "traced run saw more phases than P0-P4");
      ++phase_;
      trace_.phases[static_cast<std::size_t>(phase_)].start_s =
          seconds(last_ - start_);
    } else if (phase_ < kCounting) {
      protocol_round_us_.push_back(1e6 * seconds(now - last_));
    } else if (phase_ == kCounting) {
      counting_round_us_.push_back(1e6 * seconds(now - last_));
    }
    Span& span = trace_.phases[static_cast<std::size_t>(phase_)];
    span.end_s = seconds(now - start_);
    ++span.rounds;
    if (phase_ == kCounting) {
      awake_ += round.awake_nodes;
      if (round.round + 1 == counting_rounds_) {
        trace_.rss_mb_counting_end = current_rss_mb();
      }
    } else if (phase_ == kComputing && round.round + 1 == computing_rounds_) {
      trace_.rss_mb_computing_end = current_rss_mb();
    }
    last_ = now;
  }

  TraceRecord finish(Clock::time_point end) {
    trace_.phase_count = static_cast<std::uint64_t>(phase_ + 1);
    trace_.export_span = {seconds(last_ - start_), seconds(end - start_), 0};
    trace_.protocols_round_us_p99 = percentile(protocol_round_us_, 0.99);
    trace_.counting_round_us_p50 = percentile(counting_round_us_, 0.50);
    trace_.counting_round_us_p99 = percentile(counting_round_us_, 0.99);
    const std::uint64_t counting_rounds =
        trace_.phases[static_cast<std::size_t>(kCounting)].rounds;
    trace_.counting_awake_per_round =
        counting_rounds == 0 ? 0.0
                             : static_cast<double>(awake_) /
                                   static_cast<double>(counting_rounds);
    return trace_;
  }

 private:
  std::uint64_t counting_rounds_;
  std::uint64_t computing_rounds_;
  Clock::time_point start_;
  Clock::time_point last_;
  int phase_ = -1;
  std::uint64_t awake_ = 0;
  std::vector<double> protocol_round_us_;
  std::vector<double> counting_round_us_;
  TraceRecord trace_;
};

enum class Mode {
  kSerialTwin,  ///< one process, one thread: the bit-identity reference
  kTimed,
  kTraced,      ///< timed with the Tracer installed
};

struct RunOutput {
  RunRecord record;
  TraceRecord trace;           ///< kTraced only
  std::vector<double> scores;  ///< when asked for (reference runs)
};

/// One pipeline run, in the calling (child) process.  A traced run reads
/// the phases' round counts off `reference`, a run of the same input.
RunOutput run_pipeline_once(const Workload& w, const Input& in,
                            const fs::path& checkpoint_dir, Mode mode,
                            bool keep_scores, const RunRecord& reference) {
  RunOutput out;
  RunRecord& rec = out.record;
  // Set-up, repeated so its median is steady; the last build is the input.
  std::vector<double> setup_s;
  Graph g;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point start = Clock::now();
    g = make_graph(w, in.graph_seed);
    require_connected(g, "perfbench");
    if (w.lossy) fresh_directory(checkpoint_dir);
    setup_s.push_back(seconds(Clock::now() - start));
  }
  rec.setup_s = median(setup_s);

  PipelineSpec spec =
      make_spec(w, in, checkpoint_dir, mode == Mode::kSerialTwin);
  std::optional<Tracer> tracer;
  if (mode == Mode::kTraced) {
    tracer.emplace(reference.counting.rounds, reference.computing.rounds);
    spec.round_observer = [&tracer](const RoundSnapshot& round) {
      tracer->on_round(round);
    };
  }
  const double cpu_before = cpu_seconds(RUSAGE_SELF);
  const Clock::time_point start = Clock::now();
  if (tracer) tracer->start(start);
  const PipelineResult result = run_pipeline_result(g, spec);
  const Clock::time_point end = Clock::now();
  rec.wall_s = seconds(end - start);
  // Shard workers are reaped inside the call, so RUSAGE_CHILDREN covers
  // exactly this run's workers.
  rec.cpu_s = cpu_seconds(RUSAGE_SELF) - cpu_before +
              cpu_seconds(RUSAGE_CHILDREN);
  rec.peak_rss_mb =
      std::max(max_rss_mb(RUSAGE_SELF), max_rss_mb(RUSAGE_CHILDREN));
  if (tracer) out.trace = tracer->finish(end);

  const DistributedRwbcResult& r = result.rwbc;
  rec.total = r.report.metrics;
  rec.election = r.election_metrics;
  rec.bfs = r.bfs_metrics;
  rec.dissemination = r.dissemination_metrics;
  rec.counting = r.counting_metrics;
  rec.computing = r.computing_metrics;
  rec.walks_expected = r.report.walks.expected;
  rec.walks_abandoned = r.report.walks.abandoned;
  rec.walks_lost = r.report.walks.lost;
  rec.walks_exact = r.report.walks.exact();
  rec.score_count = r.report.scores.size();
  rec.scores_finite =
      std::all_of(r.report.scores.begin(), r.report.scores.end(),
                  [](double s) { return std::isfinite(s); });
  rec.digest = scores_digest(r.report.scores);
  rec.leader = r.leader;
  rec.target = r.target;
  rec.checkpoint_written = r.report.checkpoint_written;
  rec.checkpoint_dropped = r.report.checkpoint_dropped;
  rec.checkpoint_driver_ns = r.report.checkpoint_driver_ns;
  if (w.lossy) {
    for (const auto& entry : fs::recursive_directory_iterator(checkpoint_dir)) {
      const std::string name = entry.path().filename().string();
      if (entry.is_regular_file() && name.starts_with("ckpt-") &&
          name.ends_with(".rwbc")) {
        ++rec.checkpoint_files;
        rec.checkpoint_bytes += entry.file_size();
      }
    }
  }
  if (keep_scores) out.scores = r.report.scores;
  return out;
}

RunOutput run_in_child(const Workload& w, const Input& in,
                       const fs::path& checkpoint_dir, Mode mode,
                       bool keep_scores, const RunRecord& reference) {
  const std::vector<std::uint8_t> bytes = in_child([&] {
    const RunOutput out = run_pipeline_once(w, in, checkpoint_dir, mode,
                                            keep_scores, reference);
    std::vector<std::uint8_t> encoded;
    append_pod(encoded, out.record);
    append_pod(encoded, out.trace);
    append_doubles(encoded, out.scores);
    return encoded;
  });
  RunOutput out;
  std::size_t offset = 0;
  out.record = read_pod<RunRecord>(bytes, offset);
  out.trace = read_pod<TraceRecord>(bytes, offset);
  out.scores = read_doubles(bytes, offset);
  return out;
}

/// The output checks every run must pass: exact walk accounting and n
/// finite scores, plus, against the reference run, the same scores digest
/// and CONGEST cost.  Returns one line per failed check.
std::vector<std::string> output_problems(const RunRecord& run, NodeId n,
                                         const RunRecord* reference) {
  std::vector<std::string> problems;
  if (!run.walks_exact) problems.push_back("walk accounting is not exact");
  if (run.score_count != static_cast<std::uint64_t>(n) || !run.scores_finite) {
    problems.push_back("scores are not n finite values");
  }
  if (reference != nullptr) {
    if (run.digest != reference->digest) {
      problems.push_back("scores digest differs from the reference run");
    }
    if (run.total.rounds != reference->total.rounds ||
        run.total.total_messages != reference->total.total_messages ||
        run.total.total_bits != reference->total.total_bits) {
      problems.push_back("rounds/messages/bits differ from the reference run");
    }
  }
  return problems;
}

/// The traced run's spans must match the phases' metered round counts.
std::vector<std::string> trace_problems(const RunOutput& traced) {
  const TraceRecord& t = traced.trace;
  const RunRecord& r = traced.record;
  if (t.phase_count != kPhaseNames.size()) {
    return {"traced run saw " + std::to_string(t.phase_count) +
            " phases, not 6"};
  }
  const auto rounds = [&t](int phase) {
    return t.phases[static_cast<std::size_t>(phase)].rounds;
  };
  if (rounds(0) != r.election.rounds || rounds(1) != r.bfs.rounds ||
      rounds(2) + rounds(3) != r.dissemination.rounds ||
      rounds(kCounting) != r.counting.rounds ||
      rounds(kComputing) != r.computing.rounds) {
    return {"traced phase spans disagree with the per-phase round counts"};
  }
  return {};
}

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value =
        std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double as_double(std::uint64_t v) { return static_cast<double>(v); }

std::vector<Metric> per_layer_metrics(const Workload& w,
                                      const RunOutput& traced,
                                      double untraced_wall_s) {
  const RunRecord& r = traced.record;
  const TraceRecord& t = traced.trace;
  const auto phase_s = [&t](int phase) {
    return t.phases[static_cast<std::size_t>(phase)].seconds();
  };
  const double data_messages =
      as_double(r.counting.total_messages + r.computing.total_messages);
  return {
      {"p0_election.wall_s", phase_s(0), "s"},
      {"p1_bfs.wall_s", phase_s(1), "s"},
      {"p2_dissemination.wall_s", phase_s(2) + phase_s(3), "s"},
      {"protocols.rounds",
       as_double(r.election.rounds + r.bfs.rounds + r.dissemination.rounds),
       "count"},
      {"protocols.round_us.p99", t.protocols_round_us_p99, "us"},
      {"counting.wall_s", phase_s(kCounting), "s"},
      {"counting.rounds", as_double(r.counting.rounds), "count"},
      {"counting.messages", as_double(r.counting.total_messages), "count"},
      {"counting.bits", as_double(r.counting.total_bits), "count"},
      {"counting.ns_per_msg",
       1e9 * phase_s(kCounting) / as_double(r.counting.total_messages),
       "ns/msg"},
      {"counting.round_us.p50", t.counting_round_us_p50, "us"},
      {"counting.round_us.p99", t.counting_round_us_p99, "us"},
      {"counting.awake_per_round", t.counting_awake_per_round, "nodes"},
      {"counting.max_edge_bits", as_double(r.counting.max_bits_per_edge_round),
       "bits"},
      {"computing.wall_s", phase_s(kComputing), "s"},
      {"computing.rounds", as_double(r.computing.rounds), "count"},
      {"computing.messages", as_double(r.computing.total_messages), "count"},
      {"computing.ns_per_msg",
       1e9 * phase_s(kComputing) / as_double(r.computing.total_messages),
       "ns/msg"},
      {"export.wall_s", t.export_span.seconds(), "s"},
      {"rss_mb.counting_end", t.rss_mb_counting_end, "MB"},
      {"rss_mb.computing_end", t.rss_mb_computing_end, "MB"},
      {"faults.dropped", as_double(r.total.dropped_messages), "count"},
      {"reliable.retransmissions", as_double(r.total.retransmissions), "count"},
      {"reliable.retx_ratio",
       as_double(r.total.retransmissions) / data_messages, "ratio"},
      {"guardian.replica_messages", as_double(r.total.replica_messages),
       "count"},
      {"guardian.replica_bit_share",
       as_double(r.total.replica_bits) / as_double(r.counting.total_bits),
       "ratio"},
      {"checkpoint.driver_s", 1e-9 * as_double(r.checkpoint_driver_ns), "s"},
      {"checkpoint.snapshots", as_double(r.checkpoint_written), "count"},
      {"checkpoint.mb_per_snapshot",
       r.checkpoint_files == 0 ? 0.0
                               : as_double(r.checkpoint_bytes) / 1048576.0 /
                                     as_double(r.checkpoint_files),
       "MB"},
      {"checkpoint.dropped", as_double(r.checkpoint_dropped), "count"},
      {"parallel.cpu_s", r.cpu_s, "s"},
      {"parallel.busy_share", r.cpu_s / (w.workers * r.wall_s), "ratio"},
      {"trace.overhead_pct",
       100.0 * (r.wall_s - untraced_wall_s) / untraced_wall_s, "%"},
  };
}

// --- main --------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  fs::path work_dir;
};

Options parse_options(int argc, char** argv) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; i += 2) {
    RWBC_REQUIRE(i + 1 < argc, std::string(argv[i]) + " requires a value");
    values[argv[i]] = argv[i + 1];
  }
  const auto take = [&values](const std::string& flag) {
    const auto it = values.find(flag);
    RWBC_REQUIRE(it != values.end(),
                 "usage: rwbc_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR");
    const std::string value = it->second;
    values.erase(it);
    return value;
  };
  Options opt;
  opt.workload = take("--workload");
  const std::string seed = take("--seed");
  char* end = nullptr;
  opt.seed = std::strtoull(seed.c_str(), &end, 10);
  RWBC_REQUIRE(!seed.empty() && *end == '\0', "--seed expects an integer");
  const std::string window = take("--seconds");
  opt.seconds = std::strtod(window.c_str(), &end);
  RWBC_REQUIRE(*end == '\0' && opt.seconds > 0,
               "--seconds expects a positive number");
  const std::string trace = take("--trace");
  RWBC_REQUIRE(trace == "0" || trace == "1", "--trace expects 0 or 1");
  opt.trace = trace == "1";
  opt.work_dir = take("--work-dir");
  RWBC_REQUIRE(values.empty(), "unknown argument " + values.begin()->first);
  return opt;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  throw Error("unknown workload " + name);
}

/// The invocation's inputs (see Input), chosen in a child so the probe
/// runs leave nothing behind in this process.
std::vector<Input> choose_inputs(const Workload& w, std::uint64_t seed) {
  const std::vector<std::uint8_t> bytes = in_child([&] {
    std::vector<std::uint8_t> out;
    for (std::uint64_t i = 0; i < kInputs; ++i) {
      const std::uint64_t graph_seed = kInputs * seed + i;
      const Graph g = make_graph(w, graph_seed);
      const NodeId wanted = modal_degree(g);
      std::uint64_t p = graph_seed;
      while (true) {
        RWBC_REQUIRE(p < graph_seed + kSeedScan,
                     "no pipeline seed near graph seed " +
                         std::to_string(graph_seed) +
                         " draws a target of the modal degree");
        // The draw depends on the pipeline seed alone, so a run with one
        // one-step walk per node reveals it cheaply.
        PipelineSpec probe;
        probe.seed = p;
        probe.bit_floor = 128;
        probe.rwbc.walks_per_source = 1;
        probe.rwbc.cutoff = 1;
        probe.rwbc.compute_scores = false;
        if (g.degree(run_pipeline_result(g, probe).rwbc.target) == wanted) {
          break;
        }
        ++p;
      }
      append_pod(out, Input{graph_seed, p});
    }
    return out;
  });
  std::vector<Input> inputs;
  std::size_t offset = 0;
  for (std::size_t i = 0; i < kInputs; ++i) {
    inputs.push_back(read_pod<Input>(bytes, offset));
  }
  return inputs;
}

std::vector<double> exact_scores(const Workload& w, const Input& in) {
  const std::vector<std::uint8_t> bytes = in_child([&] {
    std::vector<std::uint8_t> out;
    append_doubles(out, current_flow_betweenness(make_graph(w, in.graph_seed)));
    return out;
  });
  std::size_t offset = 0;
  return read_doubles(bytes, offset);
}

/// One input's share of an invocation.
struct InputRuns {
  Input input;
  std::vector<double> exact;  ///< exact Newman RWBC of the input's graph
  /// The input's first good run; every later run must match it.
  std::optional<RunRecord> reference;
  double mean_rel_err = 0.0;
  double kendall_tau = 0.0;
  std::vector<double> wall_s;
};

int run(const Options& opt) {
  const Workload& w = find_workload(opt.workload);
  const fs::path checkpoint_dir =
      opt.work_dir / (std::string(w.name) + "-" + std::to_string(opt.seed)) /
      "checkpoints";
  const std::uint64_t walks_per_run =
      static_cast<std::uint64_t>(w.n - 1) * default_walks_per_source(w.n);
  std::vector<InputRuns> inputs;
  for (const Input& in : choose_inputs(w, opt.seed)) {
    std::printf("perfbench %s input %zu: n %d, graph seed %llu, pipeline "
                "seed %llu\n",
                std::string(w.name).c_str(), inputs.size(), w.n,
                static_cast<unsigned long long>(in.graph_seed),
                static_cast<unsigned long long>(in.pipeline_seed));
    inputs.push_back({in, exact_scores(w, in), std::nullopt, 0.0, 0.0, {}});
  }

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // One checked run of input `k`; its first good run becomes the input's
  // reference and yields its accuracy.  A run that throws or fails a check
  // counts all its walks as failed.
  const auto attempt = [&](const char* kind, std::size_t index, std::size_t k,
                           Mode mode) -> std::optional<RunOutput> {
    InputRuns& in = inputs[k];
    const bool first = !in.reference.has_value();
    std::optional<RunOutput> out;
    std::vector<std::string> problems;
    try {
      out = run_in_child(w, in.input, checkpoint_dir, mode, first,
                         in.reference.value_or(RunRecord{}));
      problems = output_problems(out->record, w.n,
                                 first ? nullptr : &*in.reference);
      if (mode == Mode::kTraced) {
        const std::vector<std::string> spans = trace_problems(*out);
        problems.insert(problems.end(), spans.begin(), spans.end());
      }
    } catch (const std::exception& e) {
      problems.push_back(e.what());
    }
    attempted += walks_per_run;
    const bool good = out.has_value() && problems.empty();
    if (good) {
      failed += out->record.walks_abandoned +
                static_cast<std::uint64_t>(std::llabs(out->record.walks_lost));
    } else {
      failed += walks_per_run;
      correct = false;
    }
    if (out) {
      const RunRecord& r = out->record;
      std::printf("%s %zu (input %zu): wall %.4f s, setup %.6f s, peak %.1f "
                  "MB, cpu %.3f s, leader %d, target %d, digest %016llx\n",
                  kind, index, k, r.wall_s, r.setup_s, r.peak_rss_mb, r.cpu_s,
                  r.leader, r.target,
                  static_cast<unsigned long long>(r.digest));
    }
    for (const std::string& p : problems) {
      std::printf("%s %zu (input %zu) FAILED: %s\n", kind, index, k, p.c_str());
    }
    if (!good) return std::nullopt;
    if (first) {
      in.reference = out->record;
      in.mean_rel_err = mean_relative_error(in.exact, out->scores);
      in.kendall_tau = kendall_tau(in.exact, out->scores);
    }
    return out;
  };

  // Bit identity across modes: input 0's reference is a single-process
  // serial run of the same input and seed, made outside the window (for
  // serial-ws that is the workload's own mode).
  attempt("serial-twin", 0, 0, Mode::kSerialTwin);

  std::vector<double> wall_s;
  std::vector<double> setup_s;
  std::vector<double> peak_rss_mb;
  const Clock::time_point window = Clock::now();
  for (std::size_t i = 1;
       i <= kInputs || seconds(Clock::now() - window) < opt.seconds; ++i) {
    const std::size_t k = (i - 1) % kInputs;
    if (const auto out = attempt("run", i, k, Mode::kTimed)) {
      wall_s.push_back(out->record.wall_s);
      setup_s.push_back(out->record.setup_s);
      peak_rss_mb.push_back(out->record.peak_rss_mb);
      inputs[k].wall_s.push_back(out->record.wall_s);
    }
  }
  for (const InputRuns& in : inputs) {
    if (!in.reference || in.wall_s.empty()) {
      std::fprintf(stderr, "perfbench: an input has no run that passed its "
                           "checks\n");
      return 1;
    }
  }

  std::vector<Metric> metrics;
  if (!opt.trace) {
    const auto mean = [&inputs](const auto& field) {
      double sum = 0.0;
      for (const InputRuns& in : inputs) sum += field(in);
      return sum / static_cast<double>(inputs.size());
    };
    metrics = {
        {"wall_s", median(wall_s), "s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", median(peak_rss_mb), "MB"},
        {"rounds",
         mean([](const InputRuns& in) {
           return as_double(in.reference->total.rounds);
         }),
         "count"},
        {"messages",
         mean([](const InputRuns& in) {
           return as_double(in.reference->total.total_messages);
         }),
         "count"},
        {"bits",
         mean([](const InputRuns& in) {
           return as_double(in.reference->total.total_bits);
         }),
         "count"},
        {"mean_rel_err",
         mean([](const InputRuns& in) { return in.mean_rel_err; }), "ratio"},
        {"kendall_tau",
         mean([](const InputRuns& in) { return in.kendall_tau; }), "ratio"},
    };
  } else {
    const std::optional<RunOutput> traced =
        attempt("traced", 1, 0, Mode::kTraced);
    if (!traced) return 1;
    // The run's phase spans, kept in memory until now.
    const std::string run_id = std::string(w.name) + "/seed-" +
                               std::to_string(opt.seed) + "/traced";
    const auto print_span = [&run_id](const char* name, const Span& span) {
      std::printf("{\"run\": \"%s\", \"span\": \"%s\", \"start_s\": %.9f, "
                  "\"end_s\": %.9f, \"rounds\": %llu}\n",
                  run_id.c_str(), name, span.start_s, span.end_s,
                  static_cast<unsigned long long>(span.rounds));
    };
    for (std::size_t p = 0; p < traced->trace.phase_count; ++p) {
      print_span(kPhaseNames[p], traced->trace.phases[p]);
    }
    print_span("export", traced->trace.export_span);
    metrics = per_layer_metrics(w, *traced, median(inputs[0].wall_s));
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
