#include "nn/transformer.h"

namespace llm::nn {

util::Status GPTConfig::Validate() const {
  if (vocab_size <= 0) {
    return util::Status::InvalidArgument("vocab_size must be positive");
  }
  if (max_seq_len <= 0) {
    return util::Status::InvalidArgument("max_seq_len must be positive");
  }
  if (d_model <= 0 || n_layer <= 0 || n_head <= 0) {
    return util::Status::InvalidArgument(
        "d_model, n_layer, n_head must be positive");
  }
  if (d_model % n_head != 0) {
    return util::Status::InvalidArgument("d_model must be divisible by n_head");
  }
  if (dropout < 0.0f || dropout >= 1.0f) {
    return util::Status::InvalidArgument("dropout must be in [0, 1)");
  }
  if (attention_window < 0) {
    return util::Status::InvalidArgument("attention_window must be >= 0");
  }
  return util::Status::OK();
}

TransformerBlock::TransformerBlock(const GPTConfig& config,
                                   core::NormalSource init)
    : pre_ln_(config.pre_layernorm),
      attention_only_(config.attention_only),
      dropout_(config.dropout),
      ln1_(config.d_model),
      ln2_(config.d_model),
      attn_(config.d_model, config.n_head, init, config.attention_window) {
  if (!attention_only_) {
    mlp_ = std::make_unique<Mlp>(config.d_model, config.hidden_dim(),
                                 config.d_model, init, config.activation);
  }
}

core::Variable TransformerBlock::Forward(const core::Variable& x,
                                         bool training,
                                         util::Rng* rng) const {
  core::Variable h = x;
  if (pre_ln_) {
    core::Variable a = attn_.Forward(ln1_.Forward(h));
    a = core::Dropout(a, dropout_, rng, training);
    h = core::Add(h, a);
    if (!attention_only_) {
      core::Variable m = mlp_->Forward(ln2_.Forward(h));
      m = core::Dropout(m, dropout_, rng, training);
      h = core::Add(h, m);
    }
  } else {
    core::Variable a = attn_.Forward(h);
    a = core::Dropout(a, dropout_, rng, training);
    h = ln1_.Forward(core::Add(h, a));
    if (!attention_only_) {
      core::Variable m = mlp_->Forward(h);
      m = core::Dropout(m, dropout_, rng, training);
      h = ln2_.Forward(core::Add(h, m));
    }
  }
  return h;
}

NamedParams TransformerBlock::NamedParameters() const {
  NamedParams out;
  AppendNamed("ln1", ln1_.NamedParameters(), &out);
  AppendNamed("attn", attn_.NamedParameters(), &out);
  if (!attention_only_) {
    AppendNamed("ln2", ln2_.NamedParameters(), &out);
    AppendNamed("mlp", mlp_->NamedParameters(), &out);
  }
  return out;
}

GPTModel::GPTModel(const GPTConfig& config, util::Rng* rng)
    : GPTModel(config, rng, {}) {}

// Every module allocates its weights unset and queues their fills, in
// construction order; the one FillNormal at the end writes what a fill of
// each weight as it was made would have, with one thread team over all of
// them.
GPTModel::GPTModel(const GPTConfig& config, util::Rng* rng,
                   std::vector<util::NormalFill>&& fills)
    : config_(config),
      tok_emb_(config.vocab_size, config.d_model,
               core::NormalSource::Deferred(&fills)),
      ln_final_(config.d_model) {
  LLM_CHECK(config.Validate().ok()) << config.Validate().ToString();
  LLM_CHECK(rng != nullptr);
  const core::NormalSource init = core::NormalSource::Deferred(&fills);
  if (config.learned_positional) {
    pos_emb_ = core::Variable(
        core::Tensor::RandomNormal({config.max_seq_len, config.d_model}, init,
                                   0.0f, 0.02f),
        /*requires_grad=*/true);
  } else {
    pos_emb_ = core::Variable(
        SinusoidalPositionalEncoding(config.max_seq_len, config.d_model),
        /*requires_grad=*/false);
  }
  blocks_.reserve(static_cast<size_t>(config.n_layer));
  for (int i = 0; i < config.n_layer; ++i) {
    blocks_.push_back(std::make_unique<TransformerBlock>(config, init));
  }
  if (!config.tie_embeddings) {
    head_ = std::make_unique<Linear>(config.d_model, config.vocab_size, init,
                                     /*bias=*/false);
  }
  rng->FillNormal(fills);
}

core::Variable GPTModel::ForwardLogits(const std::vector<int64_t>& tokens,
                                       int64_t B, int64_t T,
                                       const ForwardOptions& opts) const {
  LLM_CHECK_EQ(static_cast<int64_t>(tokens.size()), B * T);
  LLM_CHECK_LE(T, config_.max_seq_len);
  const int64_t C = config_.d_model;

  // Token embedding [B*T, C] -> [B, T, C].
  core::Variable h = core::Reshape(tok_emb_.Forward(tokens), {B, T, C});

  // Positional addition: flatten to [B, T*C] and broadcast-add the first
  // T rows of the position table (contiguous as a [T*C] vector).
  core::Variable pos_flat =
      core::Reshape(pos_emb_, {1, config_.max_seq_len * C});
  core::Variable pos_t = core::Reshape(
      core::SliceLastDim(pos_flat, 0, T * C), {T * C});
  h = core::Reshape(
      core::AddRowBroadcast(core::Reshape(h, {B, T * C}), pos_t), {B, T, C});
  h = core::Dropout(h, config_.dropout, opts.rng, opts.training);

  ActivationCapture* cap = opts.capture;
  if (cap) {
    cap->residual.clear();
    cap->attention.clear();
    cap->residual.push_back(h);
  }
  for (const auto& block : blocks_) {
    if (cap && cap->capture_attention) {
      block->attention()->set_capture_probs(true);
    }
    h = block->Forward(h, opts.training, opts.rng);
    if (cap) {
      cap->residual.push_back(h);
      if (cap->capture_attention) {
        cap->attention.push_back(block->attention()->last_probs());
        block->attention()->set_capture_probs(false);
      }
    }
  }
  return Unembed(h);
}

core::Variable GPTModel::ForwardFromLayer(const core::Variable& h,
                                          int start_layer) const {
  LLM_CHECK_GE(start_layer, 0);
  LLM_CHECK_LE(start_layer, config_.n_layer);
  LLM_CHECK_EQ(h.value().ndim(), 3);
  LLM_CHECK_EQ(h.value().dim(2), config_.d_model);
  core::Variable x = h;
  for (size_t i = static_cast<size_t>(start_layer); i < blocks_.size();
       ++i) {
    x = blocks_[i]->Forward(x, /*training=*/false, nullptr);
  }
  return Unembed(x);
}

core::Variable GPTModel::Unembed(const core::Variable& h) const {
  const int64_t C = config_.d_model;
  const core::Variable flat =
      core::Reshape(ln_final_.Forward(h), {h.numel() / C, C});
  return config_.tie_embeddings ? core::MatMulBt(flat, tok_emb_.weight())
                                : head_->Forward(flat);
}

core::Variable GPTModel::LmLoss(const std::vector<int64_t>& tokens,
                                const std::vector<int64_t>& targets,
                                int64_t B, int64_t T,
                                const ForwardOptions& opts,
                                int64_t ignore_index) const {
  LLM_CHECK_EQ(tokens.size(), targets.size());
  core::Variable logits = ForwardLogits(tokens, B, T, opts);
  return core::CrossEntropyLogits(logits, targets, ignore_index);
}

NamedParams GPTModel::NamedParameters() const {
  NamedParams out;
  AppendNamed("tok_emb", tok_emb_.NamedParameters(), &out);
  if (config_.learned_positional) out.emplace_back("pos_emb", pos_emb_);
  for (size_t i = 0; i < blocks_.size(); ++i) {
    AppendNamed("blocks/" + std::to_string(i), blocks_[i]->NamedParameters(),
                &out);
  }
  AppendNamed("ln_final", ln_final_.NamedParameters(), &out);
  if (head_) AppendNamed("head", head_->NamedParameters(), &out);
  return out;
}

}  // namespace llm::nn
