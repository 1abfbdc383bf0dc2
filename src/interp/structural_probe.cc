#include "interp/structural_probe.h"

#include <cmath>

#include "eval/metrics.h"
#include "train/optimizer.h"

namespace llm::interp {

StructuralProbe::StructuralProbe(const StructuralProbeConfig& config)
    : config_(config) {
  LLM_CHECK_GT(config.dim, 0);
  LLM_CHECK_GT(config.rank, 0);
  LLM_CHECK_LE(config.rank, config.dim);
  util::Rng rng(config.seed);
  const float stddev = 1.0f / std::sqrt(static_cast<float>(config.dim));
  projection_ = core::Variable(
      core::Tensor::RandomNormal({config.dim, config.rank}, &rng, 0.0f,
                                 stddev),
      /*requires_grad=*/true);
}

core::Variable StructuralProbe::DistanceLoss(
    const ProbeSentence& sentence) const {
  const int64_t L = sentence.embeddings.dim(0);
  LLM_CHECK_GE(L, 2);
  core::Variable emb(sentence.embeddings, /*requires_grad=*/false);
  core::Variable proj = core::MatMul(emb, projection_);  // [L, r]

  std::vector<int64_t> rows_i, rows_j;
  std::vector<float> gold;
  for (int64_t i = 0; i < L; ++i) {
    for (int64_t j = i + 1; j < L; ++j) {
      rows_i.push_back(i);
      rows_j.push_back(j);
      gold.push_back(static_cast<float>(
          sentence.gold_distance[static_cast<size_t>(i)]
                                [static_cast<size_t>(j)]));
    }
  }
  const auto P = static_cast<int64_t>(rows_i.size());
  core::Variable diff = core::Sub(core::GatherRows(proj, rows_i),
                                  core::GatherRows(proj, rows_j));  // [P, r]
  core::Variable sq = core::Mul(diff, diff);
  // Row-wise sum via multiplication with a ones column.
  core::Variable ones(core::Tensor::Ones({config_.rank, 1}), false);
  core::Variable pred = core::MatMul(sq, ones);  // [P, 1]
  core::Tensor target = core::Tensor::FromVector({P, 1}, gold);
  // H&M use L1; squared error behaves equivalently at this scale and is
  // what the op set provides.
  return core::MseLoss(pred, target);
}

float StructuralProbe::Fit(const std::vector<ProbeSentence>& sentences) {
  LLM_CHECK(!sentences.empty());
  util::Rng rng(config_.seed + 1);
  train::AdamWOptions opt;
  opt.lr = config_.lr;
  train::AdamW adam({projection_}, opt);
  float last = 0.0f;
  for (int64_t step = 0; step < config_.steps; ++step) {
    core::Variable total;
    for (int64_t k = 0; k < config_.sentences_per_step; ++k) {
      const auto& s = sentences[rng.UniformInt(sentences.size())];
      core::Variable loss = DistanceLoss(s);
      total = total.defined() ? core::Add(total, loss) : loss;
    }
    total = core::ScalarMul(
        total, 1.0f / static_cast<float>(config_.sentences_per_step));
    adam.ZeroGrad();
    core::Backward(total);
    adam.Step();
    last = total.value()[0];
  }
  return last;
}

std::vector<std::vector<double>> StructuralProbe::PredictDistances(
    const core::Tensor& embeddings) const {
  const int64_t L = embeddings.dim(0);
  const int64_t D = embeddings.dim(1);
  LLM_CHECK_EQ(D, config_.dim);
  // proj = emb x B, computed without autograd.
  const core::Tensor& b = projection_.value();
  const int64_t r = config_.rank;
  std::vector<double> proj(static_cast<size_t>(L * r), 0.0);
  for (int64_t i = 0; i < L; ++i) {
    for (int64_t d = 0; d < D; ++d) {
      const double e = embeddings[i * D + d];
      if (e == 0.0) continue;
      for (int64_t k = 0; k < r; ++k) {
        proj[static_cast<size_t>(i * r + k)] +=
            e * static_cast<double>(b[d * r + k]);
      }
    }
  }
  std::vector<std::vector<double>> out(
      static_cast<size_t>(L), std::vector<double>(static_cast<size_t>(L)));
  for (int64_t i = 0; i < L; ++i) {
    for (int64_t j = i + 1; j < L; ++j) {
      double sq = 0.0;
      for (int64_t k = 0; k < r; ++k) {
        const double d = proj[static_cast<size_t>(i * r + k)] -
                         proj[static_cast<size_t>(j * r + k)];
        sq += d * d;
      }
      out[static_cast<size_t>(i)][static_cast<size_t>(j)] = sq;
      out[static_cast<size_t>(j)][static_cast<size_t>(i)] = sq;
    }
  }
  return out;
}

util::StatusOr<double> StructuralProbe::MeanSpearman(
    const std::vector<ProbeSentence>& sentences) const {
  double total = 0.0;
  int64_t counted = 0;
  for (const auto& s : sentences) {
    const int64_t L = s.embeddings.dim(0);
    if (L < 4) continue;  // too few pairs to rank meaningfully
    const auto pred = PredictDistances(s.embeddings);
    std::vector<double> p, g;
    for (int64_t i = 0; i < L; ++i) {
      for (int64_t j = i + 1; j < L; ++j) {
        p.push_back(pred[static_cast<size_t>(i)][static_cast<size_t>(j)]);
        g.push_back(static_cast<double>(
            s.gold_distance[static_cast<size_t>(i)]
                           [static_cast<size_t>(j)]));
      }
    }
    auto rho = eval::SpearmanCorrelation(p, g);
    if (!rho.ok()) continue;  // e.g. all gold distances tied
    total += *rho;
    ++counted;
  }
  if (counted == 0) {
    return util::Status::InvalidArgument("no scorable sentences");
  }
  return total / static_cast<double>(counted);
}

}  // namespace llm::interp
