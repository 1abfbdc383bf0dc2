#include "train/dist/worker_loop.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <thread>
#include <utility>

#include "nn/module.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "train/checkpoint.h"
#include "util/check.h"
#include "util/fault.h"

namespace llm::train::dist {
namespace {

/// Rank 0 only, inside checkpoint collective A: rebuilds the full "adamw"
/// state from every rank's gathered moment buffer (owned m slices then
/// owned v slices, each in parameter-index order — the exact order every
/// rank flattened with) and writes the v2 checkpoint.
util::Status SaveAssembledCheckpoint(
    nn::Module& model, ShardedAdamW& opt,
    const std::vector<std::vector<float>>& moment_bufs,
    const std::vector<StepRecord>* history, int64_t next_step,
    const WorkerLoopOptions& options) {
  const std::vector<int>& owners = opt.owners();
  const std::vector<core::Variable>& params = opt.params();
  const size_t n = params.size();
  std::vector<size_t> cur(static_cast<size_t>(opt.world_size()), 0);
  OptimizerState full{"adamw", opt.step_count(), {}};
  full.slots.reserve(2 * n);
  for (int pass = 0; pass < 2; ++pass) {  // m slots, then v slots
    for (size_t i = 0; i < n; ++i) {
      const size_t o = static_cast<size_t>(owners[i]);
      const size_t numel = static_cast<size_t>(params[i].numel());
      const std::vector<float>& buf = moment_bufs[o];
      if (cur[o] + numel > buf.size()) {
        return util::Status::Internal(
            "moment gather underflow: rank " + std::to_string(o) +
            " sent " + std::to_string(buf.size()) + " floats");
      }
      core::Tensor slot(params[i].value().shape());
      std::copy(buf.begin() + static_cast<ptrdiff_t>(cur[o]),
                buf.begin() + static_cast<ptrdiff_t>(cur[o] + numel),
                slot.data());
      cur[o] += numel;
      full.slots.emplace_back((pass == 0 ? "m/" : "v/") + std::to_string(i),
                              std::move(slot));
    }
  }

  TrainState state;
  state.has_optimizer = true;
  state.optimizer = std::move(full);
  state.has_trainer = true;
  state.next_step = next_step;
  state.lr_scale = 1.0f;
  if (history != nullptr) state.history = *history;

  const std::string path =
      options.checkpoint_dir + "/" + CheckpointFileName(next_step);
  LLM_RETURN_IF_ERROR(SaveCheckpoint(model, path, &state));
  obs::FlightRecorder::Global().Record(
      obs::FlightEventType::kCheckpointSaved, 0, next_step);
  return PruneCheckpoints(options.checkpoint_dir, options.keep_last_k);
}

}  // namespace

uint64_t StepSeed(uint64_t seed, int rank, int64_t step) {
  uint64_t x = seed;
  x += 0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(step) + 1);
  x += 0xBF58476D1CE4E5B9ull * (static_cast<uint64_t>(rank) + 1);
  return x;
}

WorkerLoopResult RunWorkerLoop(Comm& comm, nn::Module& model,
                               ShardedAdamW& opt, const DistLossFn& loss_fn,
                               const WorkerLoopOptions& options,
                               std::vector<StepRecord>* history,
                               std::atomic<int64_t>* step_reached,
                               const std::function<bool()>& superseded,
                               const WorkerWarningFn& on_warning) {
  const int rank = options.rank;
  const std::string rank_prefix = "dist.worker." + std::to_string(rank) + ".";
  auto& recorder = obs::FlightRecorder::Global();
  auto& registry = obs::MetricsRegistry::Global();
  obs::Gauge* g_step = registry.GetGauge(rank_prefix + "step");
  obs::Counter* c_wait = registry.GetCounter("dist.comm.wait_ns");
  // Per-rank twin of dist.comm.wait_ns. It lives in the rank's telemetry
  // namespace so a shipped snapshot attributes comm overhead to the rank
  // that paid it — the bench's per-rank comm_ms_per_step source.
  obs::Counter* c_rank_wait = registry.GetCounter(rank_prefix + "comm_wait_ns");
  obs::Counter* c_tel_bytes =
      registry.GetCounter(rank_prefix + "telemetry_bytes");
  obs::Counter* c_tel_ships =
      registry.GetCounter(rank_prefix + "telemetry_ships");

  // Times a collective wait into the comm-overhead counters the bench's
  // per-step comm-overhead figures are computed from.
  const auto timed = [&](auto&& collective) {
    const auto t0 = std::chrono::steady_clock::now();
    auto result = collective();
    const auto waited = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    c_wait->Increment(waited);
    c_rank_wait->Increment(waited);
    return result;
  };

  const std::vector<core::Variable>& params = opt.params();
  const std::vector<int>& owners = opt.owners();
  const size_t n = params.size();
  int64_t step = options.start_step;
  int64_t seq = 0;  // collective sequence number, lockstep across ranks

  WorkerLoopResult res;
  res.step_reached = step;
  const auto fail = [&](util::Status status) {
    res.status = std::move(status);
    res.step_reached = step;
    return res;
  };

  // Ships one telemetry unit to the coordinator and returns it (the kill
  // path reuses the captured unit for the postmortem file). The ship
  // event is recorded *before* capture so every shipped delta contains
  // its own ship marker; the bytes counter is bumped after encoding, so
  // it trails the in-flight unit by one ship (the final/postmortem unit
  // carries the cumulative total).
  uint64_t ship_from_ticket = 0;
  const auto ship = [&](int32_t reason) {
    recorder.Record(obs::FlightEventType::kTelemetryShip, rank, step, reason);
    c_tel_ships->Increment();
    obs::TelemetryCaptureOptions cap;
    if (options.telemetry_whole_process) {
      cap.include_events = true;
      cap.events_from_ticket = ship_from_ticket;
    } else {
      // Shared-process worker: only this rank's namespace, no events —
      // see WorkerLoopOptions::telemetry_whole_process.
      cap.metric_prefix = rank_prefix;
      cap.include_events = false;
    }
    obs::RankTelemetry unit = obs::CaptureRankTelemetry(
        rank, options.epoch, step, reason, cap);
    if (!unit.events.empty()) {
      ship_from_ticket = unit.events.back().ticket + 1;
    }
    const std::vector<uint8_t> blob = obs::EncodeRankTelemetry(unit);
    c_tel_bytes->Increment(blob.size());
    comm.ShipTelemetry(rank, blob);
    return unit;
  };

  while (step < options.max_steps) {
    if (superseded && superseded()) {
      return fail(util::Status::Cancelled("superseded by newer epoch"));
    }
    comm.Heartbeat(rank);
    g_step->Set(static_cast<double>(step));
    if (step_reached != nullptr) step_reached->store(step);

    if (util::MaybeInjectFault(util::FaultSite::kWorkerKill)) {
      recorder.Record(obs::FlightEventType::kWorkerDeath, rank, step,
                      /*reason=*/0);
      if (options.die_on_kill_fault) {
        // Worker-process mode: die the way a real incident would —
        // mid-step, no destructors, no goodbye on the wire. But first,
        // the last gasp: SIGKILL itself is uncatchable, and this is the
        // one death we inflict on ourselves, so the postmortem handshake
        // runs *before* the raise — ship a postmortem-tagged telemetry
        // unit over the still-healthy transport and atomically dump the
        // same unit to the per-rank postmortem file for the coordinator
        // to harvest.
        recorder.Record(obs::FlightEventType::kPostmortemDump, rank, step,
                        /*signal=*/0);
        const obs::RankTelemetry last = ship(obs::kTelemetryShipPostmortem);
        if (!options.postmortem_path.empty()) {
          (void)obs::WritePostmortem(options.postmortem_path, last);
        }
        std::raise(SIGKILL);
      }
      res.killed = true;
      return fail(
          util::Status::Internal("worker killed by fault injection"));
    }
    if (util::MaybeInjectFault(util::FaultSite::kWorkerStraggle)) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.straggle_ms));
    }

    const float lr =
        options.schedule ? options.schedule->LrAt(step) : options.base_lr;
    opt.set_lr(lr);

    util::Rng rng(StepSeed(options.seed, rank, step));
    StepContext ctx{rank, options.world_size, step, &rng};
    core::Variable loss = loss_fn(model, ctx);
    const float local_loss = loss.value()[0];
    opt.ZeroGrad();
    core::Backward(loss);

    // Flat all-reduce payload: every grad (zeros where this rank's graph
    // produced none), one has-grad flag per param, the local loss. The
    // flags keep grad *presence* identical to a single-process run: a
    // param no rank touched stays grad-free, so AdamW skips it there too.
    std::vector<float> flat;
    int64_t total = 0;
    for (const auto& p : params) total += p.numel();
    flat.reserve(static_cast<size_t>(total) + n + 1);
    for (const auto& p : params) {
      if (p.has_grad()) {
        const core::Tensor& g = p.grad();
        for (int64_t j = 0; j < g.numel(); ++j) flat.push_back(g[j]);
      } else {
        flat.insert(flat.end(), static_cast<size_t>(p.numel()), 0.0f);
      }
    }
    for (const auto& p : params) flat.push_back(p.has_grad() ? 1.0f : 0.0f);
    flat.push_back(local_loss);

    util::Status reduced = timed([&] {
      return comm.AllReduceMean(rank, seq++, &flat,
                                options.collective_timeout);
    });
    if (!reduced.ok()) return fail(std::move(reduced));

    size_t off = 0;
    for (size_t i = 0; i < n; ++i) {
      core::Variable p = params[i];
      const int64_t numel = p.numel();
      if (flat[static_cast<size_t>(total) + i] > 0.0f) {
        core::Tensor& g = p.mutable_grad();  // allocates zeros if absent
        for (int64_t j = 0; j < numel; ++j) {
          g[j] = flat[off + static_cast<size_t>(j)];
        }
      }
      off += static_cast<size_t>(numel);
    }
    const float mean_loss = flat.back();

    const float grad_norm = ClipGradNorm(params, options.clip_norm);
    opt.Step();

    // All-gather the owner-updated parameter slices so every replica
    // finishes the step bit-identical.
    std::vector<float> mine;
    for (size_t i = 0; i < n; ++i) {
      if (owners[i] != rank) continue;
      const core::Tensor& w = params[i].value();
      for (int64_t j = 0; j < w.numel(); ++j) mine.push_back(w[j]);
    }
    auto gathered = timed([&] {
      return comm.Exchange(rank, seq++, std::move(mine),
                           options.collective_timeout);
    });
    if (!gathered.ok()) return fail(std::move(gathered).status());
    std::vector<size_t> offs(static_cast<size_t>(options.world_size), 0);
    for (size_t i = 0; i < n; ++i) {
      const size_t owner = static_cast<size_t>(owners[i]);
      const int64_t numel = params[i].numel();
      if (owners[i] != rank) {
        const std::vector<float>& buf = gathered.value()[owner];
        core::Variable p = params[i];  // Variable is a shared handle
        core::Tensor& w = p.mutable_value();
        for (int64_t j = 0; j < numel; ++j) {
          w[j] = buf[offs[owner] + static_cast<size_t>(j)];
        }
      }
      offs[owner] += static_cast<size_t>(numel);
    }

    if (rank == 0 && history != nullptr) {
      history->push_back({step, mean_loss, lr, grad_norm,
                          static_cast<uint8_t>(StepEvent::kOk)});
    }

    ++step;
    const bool checkpoint_due =
        (options.checkpoint_every > 0 &&
         step % options.checkpoint_every == 0) ||
        step == options.max_steps;
    if (checkpoint_due) {
      // Checkpoint collective A: every rank's owned moments for steps <
      // step are final, and — because rank 0 cannot reach across a
      // process boundary for peer shards — the barrier carries them:
      // each rank contributes its owned m slices then v slices, in
      // parameter-index order.
      std::vector<float> moments;
      for (int pass = 0; pass < 2; ++pass) {
        for (size_t i = 0; i < n; ++i) {
          if (owners[i] != rank) continue;
          const core::Tensor& t = pass == 0 ? opt.m(i) : opt.v(i);
          for (int64_t j = 0; j < t.numel(); ++j) moments.push_back(t[j]);
        }
      }
      auto shards = timed([&] {
        return comm.Exchange(rank, seq++, std::move(moments),
                             options.collective_timeout);
      });
      if (!shards.ok()) return fail(std::move(shards).status());
      if (rank == 0) {
        util::Status saved = SaveAssembledCheckpoint(
            model, opt, shards.value(), history, step, options);
        if (!saved.ok()) {
          // The previous checkpoint is intact (writes are atomic); a
          // failed save or prune must not kill a healthy world.
          if (on_warning) on_warning("checkpoint-write", saved.ToString());
          std::fprintf(stderr,
                       "[dist] checkpoint at step %lld failed: %s\n",
                       static_cast<long long>(step),
                       saved.ToString().c_str());
        }
      }
      // Barrier B holds the world until the save is done; rank 0's write
      // time rides on everyone else's wait, hence the extra slack.
      util::Status released = timed([&] {
        return comm.Barrier(rank, seq++, options.collective_timeout * 4);
      });
      if (!released.ok()) return fail(std::move(released));
    }

    if (options.telemetry_every > 0 &&
        step % options.telemetry_every == 0) {
      ship(obs::kTelemetryShipPeriodic);
    }
  }

  g_step->Set(static_cast<double>(step));
  if (step_reached != nullptr) step_reached->store(step);
  // Final unit before the goodbye, so the coordinator's aggregator holds
  // this rank's end-of-run totals even if no periodic ship was due.
  if (options.telemetry_every > 0) ship(obs::kTelemetryShipFinal);
  comm.Finish(rank);
  res.status = util::Status::OK();
  res.step_reached = step;
  return res;
}

}  // namespace llm::train::dist
