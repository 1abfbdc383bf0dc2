// Experiment F2 — reproduces the *shape* of Figure 2 of the paper
// ("Scaling Laws for Neural Language Models", Kaplan et al. [67]): test
// loss falls as a power law in (a) model size with ample data and (b)
// dataset size with an ample model, appearing as straight lines on a
// log-log plot after subtracting the irreducible entropy of the data.
//
// Substrate: transformers of increasing size trained on a PCFG-generated
// corpus whose true per-token entropy we can compute exactly with the
// inside algorithm — so unlike the paper, the loss floor is known rather
// than fitted. Expect exponents far larger than the paper's ~0.076 (the
// toy language saturates quickly); the reproduction target is the
// straight-line log-log shape and monotone wins for scale.
//
// Also exercises ablation #1 of DESIGN.md: pre-LN vs post-LN trainability
// at the largest size.
// Emits machine-readable `BENCH_FIG2` JSON lines: wall-clock per model
// decade for panel (a), and data-parallel training speedup (DistTrainer
// worlds 1/2/4 at equal global batch).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "data/pcfg_corpus.h"
#include "eval/lm_eval.h"
#include "eval/power_law.h"
#include "grammar/cnf.h"
#include "nn/layers.h"
#include "nn/transformer.h"
#include "obs/metrics.h"
#include "text/dataset.h"
#include "train/dist/dist_trainer.h"
#include "train/trainer.h"
#include "util/table.h"

namespace {

using llm::util::FormatCount;
using llm::util::FormatFloat;
using llm::util::Table;

constexpr int64_t kSeqLen = 24;
constexpr int64_t kBatch = 8;

struct RunResult {
  int64_t params = 0;
  int64_t data_tokens = 0;
  double test_loss = 0.0;
  double train_seconds = 0.0;
};

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

llm::nn::GPTConfig ConfigFor(int64_t vocab, int64_t d_model, int n_layer,
                             bool pre_ln = true) {
  llm::nn::GPTConfig cfg;
  cfg.vocab_size = vocab;
  cfg.max_seq_len = kSeqLen;
  cfg.d_model = d_model;
  cfg.n_layer = n_layer;
  cfg.n_head = d_model >= 32 ? 4 : 2;
  cfg.pre_layernorm = pre_ln;
  return cfg;
}

RunResult TrainAndEval(const llm::nn::GPTConfig& cfg,
                       const std::vector<int64_t>& train_tokens,
                       const llm::text::TokenDataset& test_set,
                       int64_t max_steps, uint64_t seed) {
  llm::util::Rng rng(seed);
  llm::nn::GPTModel model(cfg, &rng);
  llm::text::TokenDataset train_set(train_tokens, kSeqLen);

  llm::train::AdamWOptions aopts;
  aopts.lr = 3e-3f;
  llm::train::AdamW opt(model.Parameters(), aopts);
  llm::train::WarmupCosineLr sched(3e-3f, max_steps / 20, max_steps, 3e-4f);
  llm::train::TrainerOptions topts;
  topts.max_steps = max_steps;
  topts.clip_norm = 1.0f;
  topts.schedule = &sched;
  llm::train::Trainer trainer(&opt, topts);
  const auto t0 = std::chrono::steady_clock::now();
  trainer.Run([&] {
    std::vector<int64_t> inputs, targets;
    train_set.SampleBatch(&rng, kBatch, &inputs, &targets);
    return model.LmLoss(inputs, targets, kBatch, kSeqLen);
  });

  RunResult result;
  result.train_seconds = SecondsSince(t0);
  result.params = model.NumParameters();
  result.data_tokens = train_set.num_tokens();
  result.test_loss =
      llm::eval::EvaluateGpt(model, test_set, 24).cross_entropy;
  return result;
}

}  // namespace

int main() {
  llm::util::Rng rng(2024);
  llm::grammar::Grammar g = llm::data::ToyEnglishGrammar();

  // Ground-truth entropy of the generating process (per token), from the
  // inside algorithm on a held-out sample. This is the loss floor.
  auto cnf = llm::grammar::ToCnf(g);
  if (!cnf.ok()) {
    std::fprintf(stderr, "CNF conversion failed: %s\n",
                 cnf.status().ToString().c_str());
    return 1;
  }
  llm::data::PcfgCorpusOptions copts;
  copts.num_sentences = 400;
  auto entropy_sample = llm::data::SamplePcfgCorpus(g, copts, &rng);
  std::vector<std::vector<int>> sentences;
  int64_t sentence_tokens = 0;
  for (auto& s : entropy_sample) {
    sentence_tokens += static_cast<int64_t>(s.terminals.size());
    sentences.push_back(s.terminals);
  }
  auto true_ce = llm::grammar::CorpusCrossEntropy(*cnf, sentences);
  // The LM also predicts the end-of-sentence separator; its entropy
  // contribution makes the exact floor slightly different, so treat the
  // PCFG entropy as an approximate floor for reporting only.
  const double floor_per_token =
      true_ce.ok() ? *true_ce * (static_cast<double>(sentence_tokens) /
                                 static_cast<double>(sentence_tokens +
                                                     400))
                   : 0.0;
  std::printf("PCFG ground-truth entropy  : %.4f nats/token (approx floor "
              "incl. separators)\n\n",
              floor_per_token);

  // Shared corpora.
  copts.num_sentences = 4000;
  auto corpus = llm::data::SamplePcfgCorpus(g, copts, &rng);
  const int sep = g.num_terminals();
  const int64_t vocab = g.num_terminals() + 1;
  std::vector<int64_t> stream = llm::data::FlattenToStream(corpus, sep);
  auto [train_tokens, test_tokens] = llm::text::SplitTokens(stream, 0.15);
  llm::text::TokenDataset test_set(test_tokens, kSeqLen);

  // -------------------------------------------------------------------
  // Panel (a): loss vs model size N, full dataset, fixed step budget.
  // -------------------------------------------------------------------
  std::cout << "== Fig. 2 panel: test loss vs parameters ==\n\n";
  struct SizeSpec {
    int64_t d_model;
    int n_layer;
  };
  const SizeSpec sizes[] = {{8, 1}, {16, 1}, {24, 2}, {48, 2}, {96, 3}};
  Table size_table({"params", "layers", "d_model", "test loss",
                    "loss - floor", "train sec"});
  std::vector<double> params_x, loss_y, seconds_y;
  for (const auto& s : sizes) {
    auto cfg = ConfigFor(vocab, s.d_model, s.n_layer);
    RunResult r = TrainAndEval(cfg, train_tokens, test_set, 500,
                               /*seed=*/7 + static_cast<uint64_t>(s.d_model));
    size_table.AddRow({FormatCount(static_cast<double>(r.params)),
                       std::to_string(s.n_layer),
                       std::to_string(s.d_model),
                       FormatFloat(r.test_loss),
                       FormatFloat(r.test_loss - floor_per_token),
                       FormatFloat(r.train_seconds)});
    params_x.push_back(static_cast<double>(r.params));
    loss_y.push_back(r.test_loss);
    seconds_y.push_back(r.train_seconds);
  }
  size_table.Print(std::cout);
  auto fitn = llm::eval::FitPowerLawWithFloor(params_x, loss_y,
                                              floor_per_token * 0.9);
  if (fitn.ok()) {
    std::printf("\npower law (loss - floor) ~ N^alpha: alpha_N = %.3f, "
                "R^2 = %.3f (paper: -0.076 at web scale)\n\n",
                fitn->b, fitn->r2);
  }

  // Wall-clock cost of scale: least-squares slope of train seconds vs
  // log10(params) — how much each parameter decade costs at this step
  // budget. One machine-readable line for trend tracking across commits.
  {
    const size_t n = params_x.size();
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (size_t i = 0; i < n; ++i) {
      const double x = std::log10(params_x[i]);
      sx += x;
      sy += seconds_y[i];
      sxx += x * x;
      sxy += x * seconds_y[i];
    }
    const double denom = static_cast<double>(n) * sxx - sx * sx;
    const double per_decade =
        denom != 0.0 ? (static_cast<double>(n) * sxy - sx * sy) / denom : 0.0;
    std::string runs_json;
    for (size_t i = 0; i < n; ++i) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s{\"params\":%lld,\"seconds\":%.3f}",
                    i == 0 ? "" : ",",
                    static_cast<long long>(params_x[i]), seconds_y[i]);
      runs_json += buf;
    }
    std::printf("BENCH_FIG2 {\"bench\":\"fig2\",\"panel\":\"wallclock\","
                "\"max_steps\":500,\"runs\":[%s],"
                "\"seconds_per_decade\":%.3f}\n\n",
                runs_json.c_str(), per_decade);
  }

  // -------------------------------------------------------------------
  // Panel (b): loss vs dataset size D, fixed (largest practical) model.
  // -------------------------------------------------------------------
  std::cout << "== Fig. 2 panel: test loss vs dataset size ==\n\n";
  Table data_table({"train tokens", "test loss", "loss - floor"});
  std::vector<double> data_x, data_loss;
  for (double frac : {0.01, 0.03, 0.1, 0.3, 1.0}) {
    const auto n =
        static_cast<int64_t>(static_cast<double>(train_tokens.size()) *
                             frac);
    std::vector<int64_t> subset(train_tokens.begin(),
                                train_tokens.begin() + n);
    auto cfg = ConfigFor(vocab, 48, 2);
    RunResult r = TrainAndEval(cfg, subset, test_set, 500,
                               /*seed=*/roundl(1000 * frac));
    data_table.AddRow({FormatCount(static_cast<double>(n)),
                       FormatFloat(r.test_loss),
                       FormatFloat(r.test_loss - floor_per_token)});
    data_x.push_back(static_cast<double>(n));
    data_loss.push_back(r.test_loss);
  }
  data_table.Print(std::cout);
  auto fitd = llm::eval::FitPowerLawWithFloor(data_x, data_loss,
                                              floor_per_token * 0.9);
  if (fitd.ok()) {
    std::printf("\npower law (loss - floor) ~ D^alpha: alpha_D = %.3f, "
                "R^2 = %.3f (paper: -0.095 at web scale)\n\n",
                fitd->b, fitd->r2);
  }

  // -------------------------------------------------------------------
  // Ablation: pre-LN vs post-LN at the largest size (DESIGN.md #1).
  // -------------------------------------------------------------------
  std::cout << "== Ablation: pre-LN vs post-LN residual blocks ==\n\n";
  Table abl({"variant", "test loss"});
  for (bool pre : {true, false}) {
    auto cfg = ConfigFor(vocab, 96, 3, pre);
    RunResult r = TrainAndEval(cfg, train_tokens, test_set, 500, 99);
    abl.AddRow({pre ? "pre-LN" : "post-LN", FormatFloat(r.test_loss)});
  }
  abl.Print(std::cout);
  std::cout << "\n(Expected: pre-LN trains at least as well; post-LN is\n"
               "the original arrangement and is less stable at depth.)\n";

  // -------------------------------------------------------------------
  // Data-parallel speedup: DistTrainer at worlds 1/2/4, equal global
  // batch. Thread-backed workers on one machine, so the ceiling is the
  // core count; the interesting number is how much the collective layer
  // (all-reduce + param all-gather per step) eats of the ideal N×.
  // -------------------------------------------------------------------
  std::cout << "\n== Data-parallel speedup (DistTrainer, equal global "
               "batch) ==\n\n";
  static constexpr int kDpIn = 64, kDpHidden = 256, kDpOut = 64;
  static constexpr int kDpGlobalBatch = 192;  // divisible by every world
  static constexpr int64_t kDpSteps = 20;
  const auto dp_loss = [](llm::nn::Module& model,
                          const llm::train::dist::StepContext& ctx) {
    llm::util::Rng rng(0xF162ull +
                       0x9E3779B97F4A7C15ull *
                           (static_cast<uint64_t>(ctx.step) + 1));
    llm::core::Tensor full =
        llm::core::Tensor::RandomNormal({kDpGlobalBatch, kDpIn}, &rng);
    const int rows = kDpGlobalBatch / ctx.world_size;
    llm::core::Tensor shard({rows, kDpIn});
    for (int i = 0; i < rows * kDpIn; ++i) {
      shard[i] = full[ctx.rank * rows * kDpIn + i];
    }
    llm::core::Variable x(shard, false);
    llm::core::Variable y =
        static_cast<llm::nn::Mlp&>(model).Forward(x);
    llm::core::Variable loss = llm::core::SumAll(llm::core::Mul(y, y));
    // Scaled by the world size, as ToyShardLoss does, so the all-reduced
    // mean is the full-batch sum at every world size.
    if (ctx.world_size == 1) return loss;
    llm::core::Tensor scale =
        llm::core::Tensor::Scalar(static_cast<float>(ctx.world_size));
    return llm::core::Mul(loss, llm::core::Variable(scale, false));
  };
  // Both transports at every world size: the socket column prices the
  // full wire stack (framing, CRCs, syscalls) against shared memory for
  // the same arithmetic, and "comm ms/step" — the mean time one rank
  // spends blocked in collectives per step, from the dist.comm.wait_ns
  // counter — shows where the lost speedup went.
  Table dp_table(
      {"world", "transport", "seconds", "speedup", "comm ms/step",
       "final loss"});
  std::string dp_json;
  double dp_base_seconds = 0.0;
  llm::obs::Counter* dp_wait =
      llm::obs::MetricsRegistry::Global().GetCounter("dist.comm.wait_ns");
  for (const char* transport : {"thread", "socket"}) {
    for (int world : {1, 2, 4}) {
      namespace fs = std::filesystem;
      const std::string dir =
          (fs::temp_directory_path() /
           ("tfmr_bench_fig2_dp_" + std::string(transport) + "_w" +
            std::to_string(world)))
              .string();
      fs::remove_all(dir);
      // Per-config counter reset so the per-rank counters each worker
      // ships ("dist.worker.<r>.comm_wait_ns", ".telemetry_bytes") read
      // as this run's totals rather than accumulating across configs.
      llm::obs::MetricsRegistry::Global().ResetAll();
      llm::train::dist::DistTrainerOptions dopts;
      dopts.world_size = world;
      dopts.max_steps = kDpSteps;
      dopts.adamw.lr = 1e-3f;
      dopts.checkpoint_dir = dir;
      dopts.checkpoint_every = 0;  // final checkpoint only
      dopts.telemetry_every = 4;   // per-rank figures from shipped units
      if (std::string(transport) == "socket") {
        dopts.transport = llm::train::dist::CommTransport::kSocket;
      }
      llm::train::dist::DistTrainer dist(
          dopts,
          []() -> std::unique_ptr<llm::nn::Module> {
            llm::util::Rng rng(31);
            return std::make_unique<llm::nn::Mlp>(kDpIn, kDpHidden, kDpOut,
                                                  &rng);
          },
          dp_loss);
      const uint64_t wait0 = dp_wait->value();
      const auto t0 = std::chrono::steady_clock::now();
      auto status = dist.Run();
      const double seconds = SecondsSince(t0);
      const double comm_ms_per_step =
          static_cast<double>(dp_wait->value() - wait0) / 1e6 /
          static_cast<double>(kDpSteps * world);
      fs::remove_all(dir);
      if (!status.ok()) {
        std::fprintf(stderr, "dist world %d (%s) failed: %s\n", world,
                     transport, status.ToString().c_str());
        return 1;
      }
      if (world == 1 && std::string(transport) == "thread") {
        dp_base_seconds = seconds;
      }
      const double speedup = dp_base_seconds / seconds;
      dp_table.AddRow({std::to_string(world), transport,
                       FormatFloat(seconds), FormatFloat(speedup),
                       FormatFloat(comm_ms_per_step),
                       FormatFloat(dist.history().back().loss)});
      // Per-rank figures come from the units each rank actually shipped
      // to the coordinator's aggregator — the telemetry plane measuring
      // itself — not from reading the shared registry directly.
      std::string ranks_json;
      for (int r = 0; r < world; ++r) {
        const std::string prefix = "dist.worker." + std::to_string(r) + ".";
        const double rank_comm_ms =
            static_cast<double>(dist.telemetry().RankCounter(
                r, prefix + "comm_wait_ns")) /
            1e6 / static_cast<double>(kDpSteps);
        const uint64_t rank_tel_bytes =
            dist.telemetry().RankCounter(r, prefix + "telemetry_bytes");
        char rbuf[128];
        std::snprintf(rbuf, sizeof(rbuf),
                      "%s{\"rank\":%d,\"comm_ms_per_step\":%.3f,"
                      "\"telemetry_bytes\":%llu}",
                      r == 0 ? "" : ",", r, rank_comm_ms,
                      static_cast<unsigned long long>(rank_tel_bytes));
        ranks_json += rbuf;
      }
      char buf[640];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"world\":%d,\"transport\":\"%s\",\"seconds\":%.3f,"
                    "\"speedup\":%.3f,\"comm_ms_per_step\":%.3f,"
                    "\"ranks\":[%s]}",
                    dp_json.empty() ? "" : ",", world, transport, seconds,
                    speedup, comm_ms_per_step, ranks_json.c_str());
      dp_json += buf;
    }
  }
  dp_table.Print(std::cout);
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("\n(hardware_concurrency = %u; speedup saturates at the core "
              "count, and below it the gap is the collective layer's "
              "per-step cost.)\n",
              cores);
  std::printf("\nBENCH_FIG2 {\"bench\":\"fig2\",\"panel\":\"data_parallel\","
              "\"steps\":%lld,\"global_batch\":%d,\"cores\":%u,"
              "\"worlds\":[%s]}\n",
              static_cast<long long>(kDpSteps), kDpGlobalBatch, cores,
              dp_json.c_str());
  return 0;
}
