// dist_worker: one rank of a multi-process data-parallel gang.
//
// Forked+exec'd by ProcGroupCoordinator (or launched by hand), it loads
// the rendezvous checkpoint, connects a SocketComm back to the
// coordinator's address, and runs the shared transport-agnostic worker
// loop on the canonical toy task (train/dist/toy_task.h). Faults are
// armed from --arm-fault flags so chaos tests can schedule real in-process
// failures: a fired worker-kill raises SIGKILL and the process dies for
// real, mid-step, with no goodbye frame.
//
// Exit codes (keep in sync with train/dist/proc_group.h):
//   0  ran to max_steps
//   2  collective cancelled / fenced / timed out — respawn me
//   3  checkpoint load failed
//   4  bad arguments
//
// Usage:
//   dist_worker --rank=0 --world=2 --address=/tmp/comm.sock --epoch=0
//     --ckpt=/tmp/ckpt/checkpoint_00000000.tfmr --ckpt-dir=/tmp/ckpt
//     --max-steps=20 --checkpoint-every=5 --keep-last-k=2 --seed=24397
//     --collective-timeout-ms=4000 [--telemetry-every=2]
//     [--postmortem=/tmp/ckpt/postmortem_rank0.tfmr]
//     [--arm-fault=sock-drop@3 ...]
//
// Telemetry: with --telemetry-every=N the loop ships a rank-tagged
// metrics + flight-delta unit to the coordinator every N steps (and once
// at the end). With --postmortem=PATH a dying worker — catchable fatal
// signal, load failure, cancelled loop, or the self-inflicted
// worker-kill fault — atomically dumps its final unit there for the
// coordinator to harvest into an IncidentReport.
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "train/checkpoint.h"
#include "train/dist/proc_group.h"
#include "train/dist/socket_transport.h"
#include "train/dist/toy_task.h"
#include "train/dist/worker_loop.h"
#include "util/fault.h"

namespace {

using namespace llm;              // NOLINT
using namespace llm::train;       // NOLINT
using namespace llm::train::dist; // NOLINT

struct Args {
  int rank = -1;
  int world = -1;
  std::string address;
  int64_t epoch = 0;
  std::string ckpt;
  std::string ckpt_dir;
  int64_t max_steps = -1;
  int64_t checkpoint_every = 0;
  int keep_last_k = 2;
  uint64_t seed = 0x5eedULL;
  int64_t collective_timeout_ms = 4000;
  int64_t telemetry_every = 0;
  std::string postmortem;
  // (site, zero-based occurrence) pairs from --arm-fault=name@occ.
  std::vector<std::pair<util::FaultSite, int64_t>> faults;
};

// Last-gasp state for the fatal-signal handler and the non-OK exit
// paths: enough to dump a postmortem without walking argv again.
std::atomic<int64_t> g_step{0};
int g_rank = -1;
int64_t g_epoch = 0;
char g_postmortem_path[4096] = {0};

/// Dumps the full metrics + flight ring to the postmortem file. Called
/// from failure exit paths and — pragmatically, see WritePostmortem's
/// contract — from the fatal-signal handler.
void DumpPostmortem(int sig) {
  if (g_postmortem_path[0] == '\0') return;
  llm::obs::FlightRecorder::Global().Record(
      llm::obs::FlightEventType::kPostmortemDump, g_rank, g_step.load(), sig);
  llm::obs::TelemetryCaptureOptions cap;
  cap.include_events = true;  // whole ring: this process is one rank
  llm::obs::RankTelemetry unit = llm::obs::CaptureRankTelemetry(
      g_rank, g_epoch, g_step.load(), llm::obs::kTelemetryShipPostmortem,
      cap);
  (void)llm::obs::WritePostmortem(g_postmortem_path, unit);
}

void FatalSignalHandler(int sig) {
  DumpPostmortem(sig);
  // Restore and re-raise so the wait status the coordinator reaps still
  // says "killed by signal N".
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void InstallFatalSignalHandlers() {
  // SIGKILL is uncatchable — the self-inflicted kWorkerKill fault dumps
  // before raising (worker_loop) — but every catchable fatal gets the
  // last-gasp dump.
  for (int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL, SIGTERM}) {
    std::signal(sig, FatalSignalHandler);
  }
}

bool ParseFaultFlag(const std::string& value, Args* args) {
  const size_t at = value.find('@');
  if (at == std::string::npos) return false;
  const std::string name = value.substr(0, at);
  const int64_t occurrence = std::atoll(value.c_str() + at + 1);
  for (int i = 0; i < util::kNumFaultSites; ++i) {
    const auto site = static_cast<util::FaultSite>(i);
    if (name == util::FaultSiteName(site)) {
      args->faults.emplace_back(site, occurrence);
      return true;
    }
  }
  return false;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  const auto eat = [](const std::string& arg, const char* flag,
                      std::string* out) {
    const std::string prefix = std::string(flag) + "=";
    if (arg.rfind(prefix, 0) != 0) return false;
    *out = arg.substr(prefix.size());
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (eat(arg, "--rank", &v)) {
      args->rank = std::atoi(v.c_str());
    } else if (eat(arg, "--world", &v)) {
      args->world = std::atoi(v.c_str());
    } else if (eat(arg, "--address", &v)) {
      args->address = v;
    } else if (eat(arg, "--epoch", &v)) {
      args->epoch = std::atoll(v.c_str());
    } else if (eat(arg, "--ckpt", &v)) {
      args->ckpt = v;
    } else if (eat(arg, "--ckpt-dir", &v)) {
      args->ckpt_dir = v;
    } else if (eat(arg, "--max-steps", &v)) {
      args->max_steps = std::atoll(v.c_str());
    } else if (eat(arg, "--checkpoint-every", &v)) {
      args->checkpoint_every = std::atoll(v.c_str());
    } else if (eat(arg, "--keep-last-k", &v)) {
      args->keep_last_k = std::atoi(v.c_str());
    } else if (eat(arg, "--seed", &v)) {
      args->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (eat(arg, "--collective-timeout-ms", &v)) {
      args->collective_timeout_ms = std::atoll(v.c_str());
    } else if (eat(arg, "--telemetry-every", &v)) {
      args->telemetry_every = std::atoll(v.c_str());
    } else if (eat(arg, "--postmortem", &v)) {
      args->postmortem = v;
    } else if (eat(arg, "--arm-fault", &v)) {
      if (!ParseFaultFlag(v, args)) {
        std::fprintf(stderr, "dist_worker: bad --arm-fault value '%s'\n",
                     v.c_str());
        return false;
      }
    } else {
      std::fprintf(stderr, "dist_worker: unknown argument '%s'\n",
                   arg.c_str());
      return false;
    }
  }
  if (args->rank < 0 || args->world < 1 || args->rank >= args->world ||
      args->address.empty() || args->ckpt.empty() ||
      args->ckpt_dir.empty() || args->max_steps < 0) {
    std::fprintf(stderr,
                 "dist_worker: required: --rank --world --address --ckpt "
                 "--ckpt-dir --max-steps\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return kWorkerExitBadArgs;

  // Arm every scheduled fault up front. ArmAt resets the shared
  // occurrence counters each call but keeps previously armed plans, so
  // arming all sites before any is reached keeps schedules exact.
  for (const auto& [site, occurrence] : args.faults) {
    util::FaultInjector::Global().ArmAt(site, {occurrence});
  }
  obs::WireFaultEventsToFlightRecorder();

  g_rank = args.rank;
  g_epoch = args.epoch;
  if (!args.postmortem.empty()) {
    std::snprintf(g_postmortem_path, sizeof(g_postmortem_path), "%s",
                  args.postmortem.c_str());
    InstallFatalSignalHandlers();
  }

  std::unique_ptr<nn::Module> model = MakeToyReplica();
  ShardedAdamW opt(model->Parameters(), ToyAdamWOptions(), args.rank,
                   args.world);

  TrainState init;
  util::Status loaded = LoadCheckpoint(model.get(), args.ckpt, &init);
  if (loaded.ok() && (!init.has_trainer || !init.has_optimizer)) {
    loaded = util::Status::FailedPrecondition(
        "checkpoint lacks trainer/optimizer state: " + args.ckpt);
  }
  if (loaded.ok()) loaded = opt.ImportState(init.optimizer);
  if (!loaded.ok()) {
    std::fprintf(stderr, "dist_worker rank %d: load failed: %s\n", args.rank,
                 loaded.ToString().c_str());
    DumpPostmortem(/*sig=*/0);
    return kWorkerExitLoadFailure;
  }
  g_step.store(init.next_step);

  SocketComm comm(args.rank, args.world, args.address, args.epoch);

  WorkerLoopOptions loop;
  loop.rank = args.rank;
  loop.world_size = args.world;
  loop.max_steps = args.max_steps;
  loop.start_step = init.next_step;
  loop.base_lr = ToyAdamWOptions().lr;
  loop.seed = args.seed;
  loop.collective_timeout =
      std::chrono::milliseconds(args.collective_timeout_ms);
  loop.checkpoint_every = args.checkpoint_every;
  loop.checkpoint_dir = args.ckpt_dir;
  loop.keep_last_k = args.keep_last_k;
  loop.die_on_kill_fault = true;  // a killed process, not a killed thread
  loop.epoch = args.epoch;
  loop.telemetry_every = args.telemetry_every;
  // This process IS the rank: every metric and the full flight delta are
  // unambiguously ours to ship.
  loop.telemetry_whole_process = true;
  loop.postmortem_path = args.postmortem;

  std::vector<StepRecord> history;
  if (args.rank == 0) history = std::move(init.history);

  WorkerLoopResult result = RunWorkerLoop(
      comm, *model, opt, ToyDistLoss(), loop,
      args.rank == 0 ? &history : nullptr, /*step_reached=*/&g_step,
      /*superseded=*/nullptr,
      /*on_warning=*/
      [&](const std::string& kind, const std::string& detail) {
        std::fprintf(stderr, "dist_worker rank %d: [%s] %s\n", args.rank,
                     kind.c_str(), detail.c_str());
      });
  if (!result.status.ok()) {
    std::fprintf(stderr, "dist_worker rank %d: exiting at step %lld: %s\n",
                 args.rank, static_cast<long long>(result.step_reached),
                 result.status.ToString().c_str());
    DumpPostmortem(/*sig=*/0);
    return kWorkerExitCancelled;
  }
  return kWorkerExitDone;
}
