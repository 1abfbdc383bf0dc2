// Decode-stage harness: what producing one token of the serving model
// costs, stage by stage. Its rows so far are the whole decode step's, its
// tied unembedding's and the sampler's.
//
// Rows, each a median with quartiles over kRounds rounds, of thread CPU
// time a call:
//   step    nn::BatchedDecodeStep on GPTModel(ServingConfig(), Rng(3)), in
//           ms/call: the mean call over one pass of the 48-position window
//           at B = 1, 2, 4 and 8 lanes, each lane a serve::KvCachePool slot
//           fed bench_e2e's layer tokens (1 + 7919 * (lane * 64 + pos)) %
//           vocab. A round runs one pass, about 0.4 s at B = 1 and 0.8 s
//           at B = 8 on a 4-vCPU VM.
//   unembed core::kernels::GemmBt, the step's tied unembedding, over the
//           serving model's token table at B = 1, 2, 4 and 8 rows, in
//           ms/call: rows drawn from N(0, 1), the scale of the final
//           LayerNorm's output, each written to its own logits buffer as
//           the step writes each lane's. A round makes 8 calls.
//   sample  sample::SampleFromLogits at the serving vocabulary (32768) on
//           the serving model's logits row, in us/call: the model's row
//           after one session pass over the window, the row bench_e2e's
//           traced pass times. Variants: greedy, T 0.8, T 0.8 with top-k
//           50, and T 0.8 with top-p 0.9 (chat_mix's setting).
// Each row first runs one untimed round, so its buffers reach their size.
// A round then times each row once, starting at a different row each
// round, so drift on the host spreads over every row alike. The whole run
// takes about 50 s.
//
// Writes BENCH_DECODE.json at the repository root (or --out=PATH) with the
// git SHA and the core count. No timing gates anything: it exits 1 only if
// it cannot write the record, and 2 on a bad flag.
//
// Usage: bench_decode_stages [--out=PATH]
#include <sched.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_record.h"
#include "core/kernels.h"
#include "nn/gpt_inference.h"
#include "sample/sampler.h"
#include "serve/kv_cache_pool.h"
#include "serve/serving_model.h"

namespace {

using llm::bench::NowNs;
using llm::bench::Quartiles;
using llm::bench::Summarize;

constexpr int kRounds = 20;

struct Row {
  const char* stage;
  const char* variant;
  const char* unit;             // of the value: "ms/call" or "us/call"
  double unit_ns;               // nanoseconds in one unit
  int calls;                    // a round's calls
  std::function<void()> round;  // makes a round's calls
  std::vector<double> per_call;
};

void TimeRound(Row* row) {
  const double start = NowNs(CLOCK_THREAD_CPUTIME_ID);
  row->round();
  row->per_call.push_back((NowNs(CLOCK_THREAD_CPUTIME_ID) - start) /
                          row->unit_ns / row->calls);
}

// bench_e2e's layer token for `lane` at `pos`.
int64_t LayerToken(int64_t lane, int64_t pos, int64_t vocab) {
  return (1 + 7919 * (lane * 64 + pos)) % vocab;
}

// A step row's round: one pass of the window, a BatchedDecodeStep a
// position, each of the lanes on its own KvCachePool slot.
class StepPass {
 public:
  StepPass(const llm::nn::GPTModel& model, int64_t lanes)
      : model_(model),
        pool_(model.config(), lanes),
        inputs_(static_cast<size_t>(lanes)),
        logits_(static_cast<size_t>(lanes * model.config().vocab_size)) {
    for (int64_t b = 0; b < lanes; ++b) slots_.push_back(pool_.Acquire());
  }

  void operator()() {
    const llm::nn::GPTConfig& cfg = model_.config();
    const auto lanes = static_cast<int64_t>(slots_.size());
    for (int64_t pos = 0; pos < cfg.max_seq_len; ++pos) {
      for (int64_t b = 0; b < lanes; ++b) {
        inputs_[static_cast<size_t>(b)] = {
            LayerToken(b, pos, cfg.vocab_size), pos,
            pool_.slot_views(slots_[static_cast<size_t>(b)]),
            logits_.data() + b * cfg.vocab_size};
      }
      llm::nn::BatchedDecodeStep(model_, inputs_.data(), lanes, &scratch_);
    }
  }

 private:
  const llm::nn::GPTModel& model_;
  llm::serve::KvCachePool pool_;
  std::vector<int64_t> slots_;
  std::vector<llm::nn::SeqStepInput> inputs_;
  std::vector<float> logits_;
  llm::nn::BatchedScratch scratch_;
};

// An unembed row's round: `calls` GemmBt calls of `lanes` rows against the
// token table, each row into its own logits buffer.
class UnembedCalls {
 public:
  UnembedCalls(const llm::nn::GPTModel& model, int64_t lanes, int calls)
      : table_(model.token_embedding().weight().value().data()),
        lanes_(lanes),
        width_(model.config().d_model),
        vocab_(model.config().vocab_size),
        calls_(calls),
        rows_(static_cast<size_t>(lanes * width_)),
        logits_(static_cast<size_t>(lanes * vocab_)) {
    llm::util::Rng rng(5);
    for (float& v : rows_) v = static_cast<float>(rng.Normal(0.0, 1.0));
    for (int64_t b = 0; b < lanes; ++b) {
      outs_.push_back(logits_.data() + b * vocab_);
    }
  }

  void operator()() {
    for (int i = 0; i < calls_; ++i) {
      llm::core::kernels::GemmBt(rows_.data(), table_, outs_.data(), lanes_,
                                 width_, vocab_);
    }
  }

 private:
  const float* table_;
  int64_t lanes_, width_, vocab_;
  int calls_;
  std::vector<float> rows_;
  std::vector<float> logits_;
  std::vector<float*> outs_;
};

// The serving model's logits after feeding lane 0's layer tokens for every
// position of the window.
std::vector<float> ServingLogitsRow(const llm::nn::GPTModel& model) {
  llm::nn::GptInferenceSession session(&model);
  for (int64_t pos = 0; pos < model.config().max_seq_len; ++pos) {
    session.Append(LayerToken(0, pos, model.config().vocab_size));
  }
  return session.logits();
}

volatile int64_t g_sink = 0;

// A sample row's round: `calls` draws from a fresh Rng(7).
std::function<void()> SampleCalls(const std::vector<float>& logits,
                                  llm::sample::SamplerOptions options,
                                  int calls) {
  return [&logits, options, calls] {
    llm::util::Rng rng(7);
    int64_t sink = 0;
    for (int i = 0; i < calls; ++i) {
      sink += llm::sample::SampleFromLogits(
          logits.data(), static_cast<int64_t>(logits.size()), options, &rng);
    }
    g_sink = g_sink + sink;
  };
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = std::string(TFMR_SOURCE_DIR) + "/BENCH_DECODE.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: bench_decode_stages [--out=PATH]\n");
      return 2;
    }
  }

  const llm::nn::GPTConfig cfg = llm::serve::ServingConfig();
  llm::util::Rng init(3);
  const llm::nn::GPTModel model(cfg, &init);
  const std::vector<float> logits = ServingLogitsRow(model);
  std::vector<Row> rows;
  const std::pair<int64_t, const char*> kStepWidths[] = {
      {1, "b1"}, {2, "b2"}, {4, "b4"}, {8, "b8"}};
  for (const auto& [lanes, variant] : kStepWidths) {
    auto pass = std::make_shared<StepPass>(model, lanes);
    rows.push_back({"step", variant, "ms/call", 1e6,
                    static_cast<int>(cfg.max_seq_len), [pass] { (*pass)(); },
                    {}});
  }
  constexpr int kUnembedCalls = 8;
  for (const auto& [lanes, variant] : kStepWidths) {
    auto calls = std::make_shared<UnembedCalls>(model, lanes, kUnembedCalls);
    rows.push_back({"unembed", variant, "ms/call", 1e6, kUnembedCalls,
                    [calls] { (*calls)(); }, {}});
  }
  const auto sample_row = [&](const char* variant,
                              llm::sample::SamplerOptions options, int calls) {
    rows.push_back({"sample", variant, "us/call", 1e3, calls,
                    SampleCalls(logits, options, calls), {}});
  };
  sample_row("greedy", {0.0f, 0, 0.0f}, 100);
  sample_row("temperature_0.8", {0.8f, 0, 0.0f}, 20);
  sample_row("top_k_50", {0.8f, 50, 0.0f}, 5);
  sample_row("top_p_0.9", {0.8f, 0, 0.9f}, 5);
  for (Row& row : rows) row.round();  // buffers reach their size untimed
  for (int r = 0; r < kRounds; ++r) {
    for (size_t k = 0; k < rows.size(); ++k) {
      TimeRound(&rows[(k + static_cast<size_t>(r)) % rows.size()]);
    }
  }

  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  const std::string sha = llm::bench::GitSha(TFMR_SOURCE_DIR);
  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\"bench\":\"decode_stages\",\"sha\":\"%s\",\"cores\":%d,"
               "\"vocab\":%zu,\"rounds\":%d,\"stages\":[",
               sha.c_str(), CPU_COUNT(&allowed), logits.size(), kRounds);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(out,
                 "%s{\"stage\":\"%s\",\"variant\":\"%s\",\"unit\":\"%s\","
                 "\"calls\":%d,",
                 i > 0 ? "," : "", row.stage, row.variant, row.unit,
                 row.calls);
    llm::bench::PrintQuartiles(out, "value", Summarize(row.per_call));
    std::fputc('}', out);
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);

  for (const Row& row : rows) {
    const Quartiles q = Summarize(row.per_call);
    std::printf("%-7s %-16s %9.3f %s  (q1 %.3f, q3 %.3f)\n", row.stage,
                row.variant, q.median, row.unit, q.q1, q.q3);
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
