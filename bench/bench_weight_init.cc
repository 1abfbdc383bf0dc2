// Weight-init stage harness: what drawing the serving model's Gaussian
// weights costs, stage by stage, and what one cold set-up of that model
// costs as a whole.
//
// Rows, each a median with quartiles over kRounds interleaved rounds, in
// ns a normal pair (two draws), so that a claim's stages add up:
//   draws   xoshiro256** draws: `scalar` (Rng::NextU64, one serial chain)
//           and each runnable copy's lanes (kLanes chains side by side);
//   kernel  each runnable copy's Box–Muller kernel, in blocks of a
//           claim's size;
//   check   each runnable copy's rounding check and float stores;
//   claim   each runnable copy's whole claim of kLanes chunks (draws,
//           kernel, check, the copy into each chunk and any libm
//           fallback);
//   fill    one FillNormal of the serving model's tied embedding (32768 x
//           256 values) into touched memory, in a fresh child process, on
//           one CPU and on every allowed CPU: CPU and wall time;
//   model   GPTModel(ServingConfig(), Rng(3)) alone, in a fresh child
//           process: the wall time, CPU (user + sys, every thread) and
//           minor faults of the build itself, without the process's start
//           or the server's;
//   cold    GPTModel(ServingConfig(), Rng(3)) plus InferenceServer::Start()
//           in a fresh child process: its CPU (user + sys) and minor
//           faults from wait4, the wall time from spawn to its ready line,
//           and the server's share, the wall time from the built model to
//           Start() returning, which the child reports on that line;
//   spin    how many CPUs the host delivered in each round: a fixed
//           integer spin timed on one thread, then split evenly over one
//           thread per allowed CPU, in wall time, unplaced and `placed`
//           (each thread first placed by FillNormal's rule,
//           util::TeamPlacement; the two alternate which goes first);
//           delivered CPUs are the one-thread time over the split's (the
//           allowed count when every CPU runs, about 1 when the host runs
//           one at a time). A fill or build on every allowed CPU is only
//           as fast as that; the placed split is what FillNormal's team
//           gets.
// The draws, kernel, check and claim rows run on the calling thread and
// are timed in thread CPU time.
//
// --against=PATH adds another build's fill, model and cold rows, in rounds
// interleaved with this build's (the side that goes first alternates), and
// counts the rounds this build won of those where both sides' children
// ran (a failed child leaves its round out). PATH is this file built with
// -DBENCH_INIT_CHILD_ONLY, which keeps only the child modes, so that it
// builds against an older tree; --against-sha=SHA labels its rows.
//
// Writes BENCH_INIT.json at the repository root (or --out=PATH) with the
// git SHA, the core count and the copy in use. Exits 1 only if the
// cross-check fails: every runnable copy's lane draws against serial
// NextU64() streams, and a whole fill against the sequential Normal()
// loop.
//
// Usage: bench_weight_init [--out=PATH] [--against=PATH [--against-sha=SHA]]
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_record.h"
#include "serve/inference_server.h"
#include "serve/serving_model.h"
#include "util/rng.h"
#ifndef BENCH_INIT_CHILD_ONLY
#include "util/normal_kernel.h"
#include "util/team_placement.h"
#endif

extern char** environ;

namespace {

using llm::bench::GitSha;
using llm::bench::NowNs;
using llm::bench::PrintQuartiles;
using llm::bench::Quartiles;
using llm::bench::Summarize;
using llm::util::Rng;

// bench_e2e's server: 8 slots, one worker, a 64-deep queue.
llm::serve::ServerOptions ServerConfig() {
  llm::serve::ServerOptions options;
  options.max_batch_size = 8;
  options.num_workers = 1;
  options.queue_capacity = 64;
  return options;
}

// Values in ServingConfig()'s tied embedding: the largest fill of a
// set-up.
size_t EmbeddingValues() {
  const llm::nn::GPTConfig cfg = llm::serve::ServingConfig();
  return static_cast<size_t>(cfg.vocab_size * cfg.d_model);
}

// The tied embedding's init, which the fill row and the cross-check draw
// with: Embedding passes mean 0.0f and stddev 0.02f, which reach FillNormal
// as these doubles. (The model's Linear weights draw with 1/sqrt(in):
// 0.0625 and 0.03125 in the serving model.)
constexpr double kMean = 0.0;
constexpr double kStddev = static_cast<double>(0.02f);

cpu_set_t AllowedSet() {
  cpu_set_t set;
  CPU_ZERO(&set);
  sched_getaffinity(0, sizeof(set), &set);
  return set;
}

// One child mode: writes its result line to stdout.
int RunChild(const std::string& mode) {
  if (mode == "cold") {
    Rng rng(3);
    llm::nn::GPTModel model(llm::serve::ServingConfig(), &rng);
    const double wall0 = NowNs(CLOCK_MONOTONIC);
    llm::serve::InferenceServer server(&model, ServerConfig());
    server.Start();
    char line[32];
    const int n = std::snprintf(line, sizeof(line), "%.4f\n",
                                (NowNs(CLOCK_MONOTONIC) - wall0) / 1e6);
    return write(STDOUT_FILENO, line, static_cast<size_t>(n)) == n ? 0 : 1;
  }
  if (mode == "model") {
    rusage before{}, after{};
    getrusage(RUSAGE_SELF, &before);
    const double cpu0 = NowNs(CLOCK_PROCESS_CPUTIME_ID);
    const double wall0 = NowNs(CLOCK_MONOTONIC);
    Rng rng(3);
    const llm::nn::GPTModel model(llm::serve::ServingConfig(), &rng);
    const double wall = NowNs(CLOCK_MONOTONIC) - wall0;
    const double cpu = NowNs(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
    getrusage(RUSAGE_SELF, &after);
    std::printf("%.4f %.4f %ld\n", wall / 1e6, cpu / 1e6,
                after.ru_minflt - before.ru_minflt);
    return 0;
  }
  if (mode == "fill") {
    std::vector<float> out(EmbeddingValues());  // touched: no fault is timed
    const cpu_set_t all = AllowedSet();
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all)) {
        CPU_SET(cpu, &one);
        break;
      }
    }
    double ns[2][2] = {};  // [one CPU, all CPUs][cpu, wall]
    for (int wide = 0; wide < 2; ++wide) {
      sched_setaffinity(0, sizeof(cpu_set_t), wide ? &all : &one);
      Rng rng(3);
      const double cpu0 = NowNs(CLOCK_PROCESS_CPUTIME_ID);
      const double wall0 = NowNs(CLOCK_MONOTONIC);
      rng.FillNormal(out.data(), out.size(), kMean, kStddev);
      ns[wide][1] = NowNs(CLOCK_MONOTONIC) - wall0;
      ns[wide][0] = NowNs(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
    }
    const double pairs = static_cast<double>(out.size()) / 2.0;
    std::printf("%.4f %.4f %.4f %.4f\n", ns[0][0] / pairs, ns[0][1] / pairs,
                ns[1][0] / pairs, ns[1][1] / pairs);
    return 0;
  }
  return 2;
}

#ifndef BENCH_INIT_CHILD_ONLY

namespace nk = llm::util::normal_kernel;

// Rounds of every row, each side's children and the stages alike.
constexpr int kRounds = 20;

// Output of one spawned child: its stdout, wall time to the first byte,
// and its rusage. ok is false if it could not run or exited non-zero.
struct ChildRun {
  bool ok = false;
  std::string out;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  long minor_faults = 0;
};

ChildRun Spawn(const std::string& binary, const std::string& mode) {
  ChildRun run;
  int fds[2];
  if (pipe(fds) != 0) return run;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::string flag = "--child=" + mode;
  std::string exe = binary;
  char* argv[] = {exe.data(), flag.data(), nullptr};
  const double start = NowNs(CLOCK_MONOTONIC);
  pid_t pid = 0;
  const bool spawned =
      posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv, environ) == 0;
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  char buf[256];
  ssize_t got = 0;
  while (spawned && (got = read(fds[0], buf, sizeof(buf))) > 0) {
    if (run.out.empty()) run.wall_ms = (NowNs(CLOCK_MONOTONIC) - start) / 1e6;
    run.out.append(buf, static_cast<size_t>(got));
  }
  close(fds[0]);
  if (!spawned) return run;
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) return run;
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  run.cpu_ms = ms(usage.ru_utime) + ms(usage.ru_stime);
  run.minor_faults = usage.ru_minflt;
  run.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0 && !run.out.empty();
  return run;
}

// The fill, model and cold rows of one build, a value per round: NaN where
// the round's child failed.
struct Contestant {
  std::string binary;
  std::string sha;
  std::vector<double> fill[4];  // one CPU cpu/wall, all CPUs cpu/wall
  std::vector<double> model[3];  // wall ms, cpu ms, minor faults
  std::vector<double> cold_cpu_ms, cold_wall_ms, cold_faults, cold_server_ms;
  int failures = 0;

  void Round() {
    const ChildRun fill_run = Spawn(binary, "fill");
    constexpr double kFailed = std::numeric_limits<double>::quiet_NaN();
    double v[4] = {};
    if (!fill_run.ok || std::sscanf(fill_run.out.c_str(), "%lf %lf %lf %lf",
                                    &v[0], &v[1], &v[2], &v[3]) != 4) {
      std::fill(v, v + 4, kFailed);
      ++failures;
    }
    for (int i = 0; i < 4; ++i) fill[i].push_back(v[i]);
    const ChildRun model_run = Spawn(binary, "model");
    if (!model_run.ok || std::sscanf(model_run.out.c_str(), "%lf %lf %lf",
                                     &v[0], &v[1], &v[2]) != 3) {
      std::fill(v, v + 3, kFailed);
      ++failures;
    }
    for (int i = 0; i < 3; ++i) model[i].push_back(v[i]);
    const ChildRun cold = Spawn(binary, "cold");
    double server_ms = kFailed;
    const bool cold_ok =
        cold.ok && std::sscanf(cold.out.c_str(), "%lf", &server_ms) == 1;
    failures += !cold_ok;
    cold_cpu_ms.push_back(cold_ok ? cold.cpu_ms : kFailed);
    cold_wall_ms.push_back(cold_ok ? cold.wall_ms : kFailed);
    cold_faults.push_back(
        cold_ok ? static_cast<double>(cold.minor_faults) : kFailed);
    cold_server_ms.push_back(cold_ok ? server_ms : kFailed);
  }
};

// A stage row: its ns a pair in each round.
struct Stage {
  std::string stage, variant;
  std::vector<double> values;
};

// Lane states of kLanes consecutive chunks of Rng(seed)'s stream.
nk::LaneStates ChunkStarts(uint64_t seed) {
  Rng rng(seed);
  llm::util::RngState st = rng.SaveState();
  nk::LaneStates lanes;
  for (size_t j = 0; j < nk::kLanes; ++j) {
    for (int w = 0; w < 4; ++w) lanes.s[w][j] = st.s[w];
    nk::JumpChunk(st.s);
  }
  return lanes;
}

// Every runnable copy's lane draws, for 1 to kLanes lanes, against that
// many serial NextU64() streams from the same chunk starts: every draw,
// and each lane's state after them. Then one whole fill against the
// sequential Normal() loop. Prints each failure.
bool CrossCheck() {
  bool ok = true;
  constexpr size_t kPairs = 300;
  std::vector<uint64_t> a(kPairs * nk::kLanes + nk::kLanes);
  std::vector<uint64_t> b(a.size());
  for (const nk::Copy& copy : nk::Copies()) {
    if (!copy.runnable) continue;
    for (size_t lanes = 1; lanes <= nk::kLanes; ++lanes) {
      nk::LaneStates states = ChunkStarts(7 + lanes);
      const nk::LaneStates starts = states;
      copy.draws(&states, lanes, kPairs, a.data(), b.data());
      for (size_t j = 0; j < lanes; ++j) {
        uint64_t s[4];
        for (int w = 0; w < 4; ++w) s[w] = starts.s[w][j];
        bool same = true;
        for (size_t i = 0; i < kPairs; ++i) {
          same &= nk::XoshiroNext(s) == a[i * lanes + j];
          same &= nk::XoshiroNext(s) == b[i * lanes + j];
        }
        for (int w = 0; w < 4; ++w) same &= s[w] == states.s[w][j];
        if (!same) {
          std::fprintf(stderr, "cross-check: %s lane %zu of %zu differs\n",
                       copy.name, j, lanes);
          ok = false;
        }
      }
    }
  }
  std::vector<float> fill(EmbeddingValues());
  Rng filled(3), loop(3);
  filled.FillNormal(fill.data(), fill.size(), kMean, kStddev);
  size_t differ = 0;
  for (const float f : fill) {
    const float want = static_cast<float>(loop.Normal(kMean, kStddev));
    differ += std::memcmp(&f, &want, sizeof(float)) != 0;
  }
  if (differ != 0 || filled.NextU64() != loop.NextU64()) {
    std::fprintf(stderr, "cross-check: %zu filled values differ from Normal()\n",
                 differ);
    ok = false;
  }
  return ok;
}

// Pairs per stage timing: one claim of kLanes whole chunks.
constexpr size_t kStagePairs = nk::kLanes * nk::kChunkPairs;
// Pairs per call in the kernel and check rows: a claim's block.
constexpr size_t kBlockPairs = 128;

volatile uint64_t g_sink = 0;

// Iterations of the spin row's loop: about 37 ms on one CPU of the 4-vCPU
// VM.
constexpr uint64_t kSpinSteps = uint64_t{1} << 24;

// kSpinSteps / parts steps of a serial xorshift chain, which the compiler
// can neither shorten nor vectorize.
uint64_t Spin(uint64_t seed, uint64_t parts) {
  uint64_t x = seed | 1;
  for (uint64_t i = 0; i < kSpinSteps / parts; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

// The spin split over `threads` new threads, in ms of wall time; with
// `placed`, thread i first calls TeamPlacement::Place(i), as member i of a
// FillNormal team does, so the last one starts on the waiting caller's CPU.
double SplitSpinMs(size_t threads, bool placed) {
  std::vector<uint64_t> sinks(threads);
  const double t = NowNs(CLOCK_MONOTONIC);
  {
    const llm::util::TeamPlacement placement;
    std::vector<std::jthread> team;
    for (size_t i = 0; i < threads; ++i) {
      team.emplace_back([&sinks, &placement, i, threads, placed] {
        if (placed) placement.Place(i);
        sinks[i] = Spin(i + 2, threads);
      });
    }
  }
  const double ms = (NowNs(CLOCK_MONOTONIC) - t) / 1e6;
  for (const uint64_t v : sinks) g_sink = g_sink + v;
  return ms;
}

// The spin's wall time in ms on one thread, then split over `threads`,
// unplaced and placed, the one of the two that goes first alternating with
// the round.
void SpinRound(size_t threads, int round, std::vector<double>* one_ms,
               std::vector<double>* all_ms, std::vector<double>* placed_ms) {
  const double t = NowNs(CLOCK_MONOTONIC);
  g_sink = g_sink + Spin(1, 1);
  one_ms->push_back((NowNs(CLOCK_MONOTONIC) - t) / 1e6);
  const bool placed_first = round % 2 != 0;
  const double first = SplitSpinMs(threads, placed_first);
  const double second = SplitSpinMs(threads, !placed_first);
  all_ms->push_back(placed_first ? second : first);
  placed_ms->push_back(placed_first ? first : second);
}

// One round of every stage row, each timed once: `add` records the ns a
// pair since the last `start`.
void StageRound(std::vector<Stage>* rows, uint64_t round) {
  size_t row = 0;
  double t = 0.0;
  const auto start = [&] { t = NowNs(CLOCK_THREAD_CPUTIME_ID); };
  const auto add = [&](const char* stage, const char* variant) {
    const double ns = (NowNs(CLOCK_THREAD_CPUTIME_ID) - t) / kStagePairs;
    if (rows->size() <= row) rows->push_back({stage, variant, {}});
    (*rows)[row++].values.push_back(ns);
  };
  Rng rng(100 + round);
  uint64_t sink = 0;
  start();
  for (size_t i = 0; i < 2 * kStagePairs; ++i) sink ^= rng.NextU64();
  add("draws", "scalar");
  std::vector<uint64_t> a(kStagePairs + nk::kLanes), b(a.size());
  std::vector<double> z0(kStagePairs), z1(kStagePairs);
  std::vector<float> f(2 * kStagePairs);
  for (const nk::Copy& copy : nk::Copies()) {
    if (!copy.runnable) continue;
    nk::LaneStates states = ChunkStarts(round);
    start();
    for (size_t p = 0; p < kStagePairs; p += kBlockPairs) {
      copy.draws(&states, nk::kLanes, kBlockPairs / nk::kLanes,
                 a.data() + p, b.data() + p);
    }
    add("draws", copy.name);
    start();
    for (size_t p = 0; p < kStagePairs; p += kBlockPairs) {
      copy.kernel(a.data() + p, b.data() + p, kBlockPairs, z0.data() + p,
                  z1.data() + p);
    }
    add("kernel", copy.name);
    start();
    for (size_t p = 0; p < kStagePairs; p += kBlockPairs) {
      sink += copy.check(z0.data() + p, z1.data() + p, kBlockPairs, kMean,
                         kStddev, f.data() + 2 * p);
    }
    add("check", copy.name);
    states = ChunkStarts(round);
    start();
    copy.claim(&states, nk::kLanes, nk::kChunkPairs, f.data(), kMean,
               kStddev);
    add("claim", copy.name);
    sink ^= states.s[0][0];
  }
  g_sink = g_sink + sink;
}

void PrintContestant(FILE* out, const Contestant& c) {
  const char* fill_keys[4] = {"one_cpu_cpu_ns_per_pair",
                              "one_cpu_wall_ns_per_pair",
                              "all_cpus_cpu_ns_per_pair",
                              "all_cpus_wall_ns_per_pair"};
  std::fprintf(out, "{\"sha\":\"%s\",\"failures\":%d,\"fill\":{",
               c.sha.c_str(), c.failures);
  for (int i = 0; i < 4; ++i) {
    if (i > 0) std::fputc(',', out);
    PrintQuartiles(out, fill_keys[i], Summarize(c.fill[i]));
  }
  std::fprintf(out, "},\"model\":{");
  PrintQuartiles(out, "wall_ms", Summarize(c.model[0]));
  std::fputc(',', out);
  PrintQuartiles(out, "cpu_ms", Summarize(c.model[1]));
  std::fputc(',', out);
  PrintQuartiles(out, "minor_faults", Summarize(c.model[2]));
  std::fprintf(out, "},\"cold\":{");
  PrintQuartiles(out, "cpu_ms", Summarize(c.cold_cpu_ms));
  std::fputc(',', out);
  PrintQuartiles(out, "wall_ms", Summarize(c.cold_wall_ms));
  std::fputc(',', out);
  PrintQuartiles(out, "minor_faults", Summarize(c.cold_faults));
  std::fputc(',', out);
  PrintQuartiles(out, "server_ms", Summarize(c.cold_server_ms));
  std::fprintf(out, "}}");
}

// Prints "key":{"won":W,"of":N}: the rounds in which `self` was lower than
// `other`, of the N rounds in which both sides' children ran.
void PrintWins(FILE* out, const char* key, const std::vector<double>& self,
               const std::vector<double>& other) {
  int won = 0, of = 0;
  for (size_t i = 0; i < self.size(); ++i) {
    if (std::isnan(self[i]) || std::isnan(other[i])) continue;
    won += self[i] < other[i];
    ++of;
  }
  std::fprintf(out, "\"%s\":{\"won\":%d,\"of\":%d}", key, won, of);
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_weight_init [--out=PATH] "
               "[--against=PATH [--against-sha=SHA]]\n");
  return 2;
}

#endif  // BENCH_INIT_CHILD_ONLY

}  // namespace

int main(int argc, char** argv) {
  const std::string child = "--child=";
  if (argc == 2 && std::strncmp(argv[1], child.c_str(), child.size()) == 0) {
    return RunChild(argv[1] + child.size());
  }
#ifdef BENCH_INIT_CHILD_ONLY
  return 2;
#else
  std::string out_path = std::string(TFMR_SOURCE_DIR) + "/BENCH_INIT.json";
  std::string against, against_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--out=")) {
      out_path = v;
    } else if (const char* v = value("--against=")) {
      against = v;
    } else if (const char* v = value("--against-sha=")) {
      against_sha = v;
    } else {
      return Usage();
    }
  }

  const bool checked = CrossCheck();
  std::printf("cross-check: %s\n", checked ? "ok" : "FAILED");

  std::vector<Contestant> sides(1);
  sides[0].binary = "/proc/self/exe";
  sides[0].sha = GitSha(TFMR_SOURCE_DIR);
  if (!against.empty()) {
    sides.push_back({});
    sides[1].binary = against;
    sides[1].sha = against_sha;
  }
  const cpu_set_t allowed = AllowedSet();
  std::vector<Stage> stages;
  std::vector<double> spin_one_ms, spin_all_ms, spin_placed_ms;
  std::vector<double> delivered, placed_delivered;
  for (int r = 0; r < kRounds; ++r) {
    SpinRound(static_cast<size_t>(CPU_COUNT(&allowed)), r, &spin_one_ms,
              &spin_all_ms, &spin_placed_ms);
    delivered.push_back(spin_one_ms.back() / spin_all_ms.back());
    placed_delivered.push_back(spin_one_ms.back() / spin_placed_ms.back());
    StageRound(&stages, static_cast<uint64_t>(r));
    for (size_t k = 0; k < sides.size(); ++k) {
      sides[(k + static_cast<size_t>(r)) % sides.size()].Round();
    }
  }

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return checked ? 0 : 1;
  }
  std::fprintf(out,
               "{\"bench\":\"weight_init\",\"sha\":\"%s\",\"cores\":%d,"
               "\"copy\":\"%s\",\"rounds\":%d,\"cross_check\":%s,"
               "\"stages\":[",
               sides[0].sha.c_str(), CPU_COUNT(&allowed), nk::InUse().name,
               kRounds, checked ? "true" : "false");
  for (size_t i = 0; i < stages.size(); ++i) {
    const Stage& s = stages[i];
    std::fprintf(out,
                 "%s{\"stage\":\"%s\",\"variant\":\"%s\","
                 "\"unit\":\"ns/pair\",",
                 i > 0 ? "," : "", s.stage.c_str(), s.variant.c_str());
    PrintQuartiles(out, "value", Summarize(s.values));
    std::fputc('}', out);
  }
  const auto by_round = [out](const char* key, const std::vector<double>& v) {
    std::fprintf(out, ",\"%s\":[", key);
    for (size_t i = 0; i < v.size(); ++i) {
      std::fprintf(out, "%s%.2f", i > 0 ? "," : "", v[i]);
    }
    std::fputc(']', out);
  };
  std::fprintf(out, "],\"spin\":{");
  PrintQuartiles(out, "one_thread_ms", Summarize(spin_one_ms));
  std::fputc(',', out);
  PrintQuartiles(out, "all_cpus_ms", Summarize(spin_all_ms));
  std::fputc(',', out);
  PrintQuartiles(out, "delivered_cpus", Summarize(delivered));
  by_round("delivered_cpus_by_round", delivered);
  std::fprintf(out, ",\"placed\":{");
  PrintQuartiles(out, "all_cpus_ms", Summarize(spin_placed_ms));
  std::fputc(',', out);
  PrintQuartiles(out, "delivered_cpus", Summarize(placed_delivered));
  by_round("delivered_cpus_by_round", placed_delivered);
  std::fprintf(out, "}},\"build\":");
  PrintContestant(out, sides[0]);
  if (sides.size() > 1) {
    std::fprintf(out, ",\"against\":");
    PrintContestant(out, sides[1]);
    std::fprintf(out, ",\"build_won\":{");
    PrintWins(out, "one_cpu_fill_cpu", sides[0].fill[0], sides[1].fill[0]);
    std::fputc(',', out);
    PrintWins(out, "all_cpus_fill_wall", sides[0].fill[3], sides[1].fill[3]);
    std::fputc(',', out);
    PrintWins(out, "model_wall", sides[0].model[0], sides[1].model[0]);
    std::fputc(',', out);
    PrintWins(out, "model_cpu", sides[0].model[1], sides[1].model[1]);
    std::fputc(',', out);
    PrintWins(out, "cold_cpu", sides[0].cold_cpu_ms, sides[1].cold_cpu_ms);
    std::fputc(',', out);
    PrintWins(out, "cold_wall", sides[0].cold_wall_ms, sides[1].cold_wall_ms);
    std::fputc(',', out);
    PrintWins(out, "cold_server", sides[0].cold_server_ms,
              sides[1].cold_server_ms);
    std::fputc('}', out);
  }
  std::fprintf(out, "}\n");
  std::fclose(out);

  for (const Stage& s : stages) {
    const Quartiles q = Summarize(s.values);
    std::printf("%-7s %-12s %8.3f ns/pair  (q1 %.3f, q3 %.3f)\n",
                s.stage.c_str(), s.variant.c_str(), q.median, q.q1, q.q3);
  }
  const Quartiles cpus = Summarize(delivered);
  const Quartiles placed_cpus = Summarize(placed_delivered);
  std::printf(
      "spin: %.2f CPUs delivered of %d (q1 %.2f, q3 %.2f); placed %.2f (q1 "
      "%.2f, q3 %.2f)\n",
      cpus.median, CPU_COUNT(&allowed), cpus.q1, cpus.q3, placed_cpus.median,
      placed_cpus.q1, placed_cpus.q3);
  for (const Contestant& c : sides) {
    const Quartiles one = Summarize(c.fill[0]), all = Summarize(c.fill[3]);
    const Quartiles model_wall = Summarize(c.model[0]);
    const Quartiles model_cpu = Summarize(c.model[1]);
    const Quartiles model_faults = Summarize(c.model[2]);
    const Quartiles cpu = Summarize(c.cold_cpu_ms);
    const Quartiles wall = Summarize(c.cold_wall_ms);
    const Quartiles faults = Summarize(c.cold_faults);
    const Quartiles server = Summarize(c.cold_server_ms);
    std::printf(
        "%s: fill %.3f ns/pair on one CPU, %.3f wall on all; model %.1f ms "
        "wall (q1 %.1f, q3 %.1f), %.1f ms CPU, %.0f faults; cold set-up "
        "%.1f ms CPU (q1 %.1f, q3 %.1f), %.1f ms wall, %.0f faults, server "
        "%.2f ms (q1 %.2f, q3 %.2f); %d failed children\n",
        c.sha.c_str(), one.median, all.median, model_wall.median,
        model_wall.q1, model_wall.q3, model_cpu.median, model_faults.median,
        cpu.median, cpu.q1, cpu.q3, wall.median, faults.median, server.median,
        server.q1, server.q3, c.failures);
  }
  std::printf("wrote %s\n", out_path.c_str());
  return checked ? 0 : 1;
#endif
}
