// Decode-stage harness: what producing one token of the serving model
// costs, stage by stage. Its rows so far are the sampler's.
//
// Rows, each a median with quartiles over kRounds rounds, in us a call of
// thread CPU time:
//   sample  sample::SampleFromLogits at the serving vocabulary (32768) on
//           the serving model's logits row: GPTModel(ServingConfig(),
//           Rng(3)) after one session pass over the 48-token window, the
//           row bench_e2e's traced pass times. Variants: greedy, T 0.8,
//           T 0.8 with top-k 50, and T 0.8 with top-p 0.9 (chat_mix's
//           setting).
// A round times each row once, over a fixed number of calls from a fresh
// Rng(7), and starts at a different row each round, so drift on the host
// spreads over every row alike.
//
// Writes BENCH_DECODE.json at the repository root (or --out=PATH) with the
// git SHA and the core count. No timing gates anything: it exits 1 only if
// it cannot write the record, and 2 on a bad flag.
//
// Usage: bench_decode_stages [--out=PATH]
#include <sched.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_record.h"
#include "nn/gpt_inference.h"
#include "sample/sampler.h"
#include "serve/serving_model.h"

namespace {

using llm::bench::NowNs;
using llm::bench::Quartiles;
using llm::bench::Summarize;

constexpr int kRounds = 20;

struct Row {
  const char* stage;
  const char* variant;
  llm::sample::SamplerOptions options;
  int calls;  // a round's calls
  std::vector<double> us;
};

// The serving model's logits after feeding bench_e2e's layer tokens
// (1 + 7919 * pos) % vocab for every position of the window.
std::vector<float> ServingLogitsRow() {
  const llm::nn::GPTConfig cfg = llm::serve::ServingConfig();
  llm::util::Rng rng(3);
  const llm::nn::GPTModel model(cfg, &rng);
  llm::nn::GptInferenceSession session(&model);
  for (int64_t pos = 0; pos < cfg.max_seq_len; ++pos) {
    session.Append((1 + 7919 * pos) % cfg.vocab_size);
  }
  return session.logits();
}

volatile int64_t g_sink = 0;

void TimeRow(const std::vector<float>& logits, Row* row) {
  llm::util::Rng rng(7);
  int64_t sink = 0;
  const double start = NowNs(CLOCK_THREAD_CPUTIME_ID);
  for (int i = 0; i < row->calls; ++i) {
    sink += llm::sample::SampleFromLogits(
        logits.data(), static_cast<int64_t>(logits.size()), row->options,
        &rng);
  }
  row->us.push_back((NowNs(CLOCK_THREAD_CPUTIME_ID) - start) / 1e3 /
                    row->calls);
  g_sink = g_sink + sink;
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

  const std::vector<float> logits = ServingLogitsRow();
  std::vector<Row> rows = {
      {"sample", "greedy", {0.0f, 0, 0.0f}, 100, {}},
      {"sample", "temperature_0.8", {0.8f, 0, 0.0f}, 20, {}},
      {"sample", "top_k_50", {0.8f, 50, 0.0f}, 5, {}},
      {"sample", "top_p_0.9", {0.8f, 0, 0.9f}, 5, {}},
  };
  for (Row& row : rows) {
    TimeRow(logits, &row);  // buffers reach their size untimed
    row.us.clear();
  }
  for (int r = 0; r < kRounds; ++r) {
    for (size_t k = 0; k < rows.size(); ++k) {
      TimeRow(logits, &rows[(k + static_cast<size_t>(r)) % rows.size()]);
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
                 "%s{\"stage\":\"%s\",\"variant\":\"%s\",\"unit\":\"us/call\","
                 "\"calls\":%d,",
                 i > 0 ? "," : "", row.stage, row.variant, row.calls);
    llm::bench::PrintQuartiles(out, "value", Summarize(row.us));
    std::fputc('}', out);
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);

  for (const Row& row : rows) {
    const Quartiles q = Summarize(row.us);
    std::printf("%-7s %-16s %9.1f us/call  (q1 %.1f, q3 %.1f)\n", row.stage,
                row.variant, q.median, q.q1, q.q3);
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
