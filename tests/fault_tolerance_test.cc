// End-to-end tests for the fault-tolerant training runtime: crash-safe v2
// checkpoints, bit-exact kill-and-resume, divergence rollback/skip
// recovery, and the deterministic fault-injection layer that drives them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "nn/layers.h"
#include "nn/transformer.h"
#include "train/checkpoint.h"
#include "train/optimizer.h"
#include "train/trainer.h"
#include "util/crc32.h"
#include "util/fault.h"
#include "util/rng.h"

namespace llm::train {
namespace {

namespace fs = std::filesystem;
using util::FaultInjector;
using util::FaultSite;

/// Fresh scratch directory per test; removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Every test must leave the global injector disarmed.
class FaultToleranceTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Disarm(); }
};

/// Stochastic regression loss: the batch comes from `rng`, so bit-exact
/// resume requires restoring the RNG stream, not just the weights.
std::function<core::Variable()> MakeLossFn(nn::Mlp* model, util::Rng* rng) {
  return [model, rng] {
    core::Variable x(core::Tensor::RandomNormal({2, 4}, rng), false);
    core::Variable y = model->Forward(x);
    return core::SumAll(core::Mul(y, y));
  };
}

float MaxParamDiff(const nn::Module& a, const nn::Module& b) {
  auto pa = a.NamedParameters();
  auto pb = b.NamedParameters();
  EXPECT_EQ(pa.size(), pb.size());
  float worst = 0.0f;
  for (size_t i = 0; i < pa.size(); ++i) {
    worst = std::max(worst, core::Tensor::MaxAbsDiff(pa[i].second.value(),
                                                     pb[i].second.value()));
  }
  return worst;
}

// ---------------------------------------------------------------------------
// Checkpoint format v2: atomicity and corruption detection.
// ---------------------------------------------------------------------------

TEST_F(FaultToleranceTest, TornWriteNeverCorruptsDestination) {
  ScratchDir dir("tfmr_torn_write");
  const std::string path = dir.path() + "/ckpt_000000000.tfmr";
  util::Rng rng(7);
  nn::Mlp model(4, 8, 2, &rng);
  ASSERT_TRUE(SaveCheckpoint(model, path).ok());

  // Change the weights, then crash mid-write of the second save.
  model.NamedParameters()[0].second.mutable_value().Fill(123.0f);
  FaultInjector::Global().ArmAt(FaultSite::kCheckpointWrite, {0});
  util::Status torn = SaveCheckpoint(model, path);
  EXPECT_EQ(torn.code(), util::StatusCode::kIOError);
  FaultInjector::Global().Disarm();

  // The destination still holds the complete first snapshot.
  nn::Mlp restored(4, 8, 2, &rng);
  ASSERT_TRUE(LoadCheckpoint(&restored, path).ok());
  EXPECT_NE(restored.NamedParameters()[0].second.value()[0], 123.0f);

  // And a later save (fault cleared) goes through over the stale tmp file.
  ASSERT_TRUE(SaveCheckpoint(model, path).ok());
  ASSERT_TRUE(LoadCheckpoint(&restored, path).ok());
  EXPECT_EQ(restored.NamedParameters()[0].second.value()[0], 123.0f);
}

TEST_F(FaultToleranceTest, ChecksumCorruptionRejected) {
  ScratchDir dir("tfmr_crc");
  const std::string path = dir.path() + "/ckpt_000000000.tfmr";
  util::Rng rng(8);
  nn::Mlp model(4, 8, 2, &rng);
  ASSERT_TRUE(SaveCheckpoint(model, path).ok());

  // Flip one byte inside the last tensor's data (just before the footer).
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<int64_t>(f.tellg());
    f.seekp(size - 10);
    char b = 0;
    f.seekg(size - 10);
    f.read(&b, 1);
    b ^= 0x5A;
    f.seekp(size - 10);
    f.write(&b, 1);
  }
  nn::Mlp victim(4, 8, 2, &rng);
  util::Status s = LoadCheckpoint(&victim, path);
  EXPECT_EQ(s.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("checksum mismatch"), std::string::npos) << s;
}

TEST_F(FaultToleranceTest, TruncationRejectedAsIOError) {
  ScratchDir dir("tfmr_trunc");
  const std::string path = dir.path() + "/ckpt_000000000.tfmr";
  util::Rng rng(9);
  nn::Mlp model(4, 8, 2, &rng);
  ASSERT_TRUE(SaveCheckpoint(model, path).ok());
  fs::resize_file(path, fs::file_size(path) - 20);
  util::Status s = LoadCheckpoint(&model, path);
  EXPECT_EQ(s.code(), util::StatusCode::kIOError);
  EXPECT_NE(s.message().find("truncated"), std::string::npos) << s;
}

TEST_F(FaultToleranceTest, BadMagicRejectedAsFailedPrecondition) {
  ScratchDir dir("tfmr_magic");
  const std::string path = dir.path() + "/bogus.tfmr";
  {
    std::ofstream f(path, std::ios::binary);
    f << "NOTACKPTxxxxxxxxxxxxxxxxxxxxxxxx";
  }
  util::Rng rng(10);
  nn::Mlp model(4, 8, 2, &rng);
  util::Status s = LoadCheckpoint(&model, path);
  EXPECT_EQ(s.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("magic"), std::string::npos) << s;
}

TEST_F(FaultToleranceTest, ShapeDriftRejected) {
  ScratchDir dir("tfmr_drift");
  const std::string path = dir.path() + "/ckpt_000000000.tfmr";
  util::Rng rng(11);
  nn::Mlp model(4, 8, 2, &rng);
  ASSERT_TRUE(SaveCheckpoint(model, path).ok());
  nn::Mlp wider(4, 16, 2, &rng);
  util::Status s = LoadCheckpoint(&wider, path);
  EXPECT_EQ(s.code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(FaultToleranceTest, V1CheckpointStillLoadsWeightsOnly) {
  ScratchDir dir("tfmr_v1");
  const std::string path = dir.path() + "/legacy.bin";
  util::Rng rng(12);
  nn::Mlp model(4, 8, 2, &rng);

  // Hand-write the legacy v1 layout (no version, no checksums).
  {
    std::ofstream out(path, std::ios::binary);
    out.write("TFMRCKPT", 8);
    const nn::NamedParams params = model.NamedParameters();
    const uint64_t count = params.size();
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    for (const auto& [name, var] : params) {
      const auto name_len = static_cast<uint32_t>(name.size());
      out.write(reinterpret_cast<const char*>(&name_len), sizeof(name_len));
      out.write(name.data(), name_len);
      const core::Tensor& t = var.value();
      const auto ndim = static_cast<uint32_t>(t.ndim());
      out.write(reinterpret_cast<const char*>(&ndim), sizeof(ndim));
      for (int i = 0; i < t.ndim(); ++i) {
        const int64_t d = t.dim(i);
        out.write(reinterpret_cast<const char*>(&d), sizeof(d));
      }
      out.write(reinterpret_cast<const char*>(t.data()),
                static_cast<std::streamsize>(t.numel() * sizeof(float)));
    }
  }

  nn::Mlp restored(4, 8, 2, &rng);  // different init
  TrainState state;
  ASSERT_TRUE(LoadCheckpoint(&restored, path, &state).ok());
  EXPECT_EQ(MaxParamDiff(model, restored), 0.0f);
  EXPECT_FALSE(state.has_optimizer);
  EXPECT_FALSE(state.has_rng);
  EXPECT_FALSE(state.has_trainer);

  // But resuming *training* from a weights-only file is refused.
  Sgd opt(restored.Parameters(), 0.1f);
  TrainerOptions topts;
  topts.model = &restored;
  Trainer trainer(&opt, topts);
  EXPECT_EQ(trainer.ResumeFrom(path).code(),
            util::StatusCode::kFailedPrecondition);
}

TEST_F(FaultToleranceTest, LatestCheckpointFindsNewest) {
  ScratchDir dir("tfmr_latest");
  EXPECT_EQ(LatestCheckpoint(dir.path()).status().code(),
            util::StatusCode::kNotFound);
  util::Rng rng(13);
  nn::Mlp model(4, 8, 2, &rng);
  ASSERT_TRUE(
      SaveCheckpoint(model, dir.path() + "/" + CheckpointFileName(3)).ok());
  ASSERT_TRUE(
      SaveCheckpoint(model, dir.path() + "/" + CheckpointFileName(12)).ok());
  auto latest = LatestCheckpoint(dir.path());
  ASSERT_TRUE(latest.ok());
  EXPECT_NE(latest.value().find(CheckpointFileName(12)), std::string::npos);
}

TEST_F(FaultToleranceTest, LatestCheckpointEdgeCasesReturnNotFoundCleanly) {
  // Missing directory: NotFound, not a crash or an IOError.
  EXPECT_EQ(LatestCheckpoint("/nonexistent/tfmr_no_such_dir").status().code(),
            util::StatusCode::kNotFound);

  // Path that exists but is a file, not a directory.
  ScratchDir dir("tfmr_latest_edges");
  const std::string file_path = dir.path() + "/not_a_dir";
  { std::ofstream f(file_path); f << "x"; }
  EXPECT_EQ(LatestCheckpoint(file_path).status().code(),
            util::StatusCode::kNotFound);

  // Empty directory.
  EXPECT_EQ(LatestCheckpoint(dir.path()).status().code(),
            util::StatusCode::kNotFound);

  // Directory with non-checkpoint junk only: still NotFound.
  { std::ofstream f(dir.path() + "/README.txt"); f << "notes"; }
  { std::ofstream f(dir.path() + "/ckpt_abc.tfmr"); f << "bad step"; }
  { std::ofstream f(dir.path() + "/ckpt_.tfmr"); f << "no step"; }
  { std::ofstream f(dir.path() + "/ckpt_000000007.bak"); f << "bad ext"; }
  fs::create_directories(dir.path() + "/ckpt_000000099.tfmr.d");
  EXPECT_EQ(LatestCheckpoint(dir.path()).status().code(),
            util::StatusCode::kNotFound);

  // A real checkpoint among the junk is found, junk ignored.
  util::Rng rng(14);
  nn::Mlp model(4, 8, 2, &rng);
  ASSERT_TRUE(
      SaveCheckpoint(model, dir.path() + "/" + CheckpointFileName(5)).ok());
  auto latest = LatestCheckpoint(dir.path());
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_NE(latest.value().find(CheckpointFileName(5)), std::string::npos);
}

// ---------------------------------------------------------------------------
// ValidateCheckpoint: the serving fleet's pre-swap gate.
// ---------------------------------------------------------------------------

TEST_F(FaultToleranceTest, ValidateCheckpointAcceptsGoodFileAndChecksArch) {
  ScratchDir dir("tfmr_validate");
  const std::string path = dir.path() + "/ckpt_000000000.tfmr";
  util::Rng rng(15);
  nn::Mlp model(4, 8, 2, &rng);
  ASSERT_TRUE(SaveCheckpoint(model, path).ok());

  // Structure-only validation, and validation against the right module.
  EXPECT_TRUE(ValidateCheckpoint(path).ok());
  EXPECT_TRUE(ValidateCheckpoint(path, &model).ok());

  // Architecture mismatch is caught without touching anything.
  nn::Mlp wider(4, 16, 2, &rng);
  util::Status s = ValidateCheckpoint(path, &wider);
  EXPECT_EQ(s.code(), util::StatusCode::kFailedPrecondition);

  // Missing file.
  EXPECT_FALSE(ValidateCheckpoint(dir.path() + "/absent.tfmr").ok());
}

TEST_F(FaultToleranceTest, ValidateCheckpointCatchesCorruptionAndTruncation) {
  ScratchDir dir("tfmr_validate_bad");
  const std::string path = dir.path() + "/ckpt_000000000.tfmr";
  util::Rng rng(16);
  nn::Mlp model(4, 8, 2, &rng);
  ASSERT_TRUE(SaveCheckpoint(model, path).ok());

  const std::string corrupt = dir.path() + "/corrupt.tfmr";
  fs::copy_file(path, corrupt);
  {
    std::fstream f(corrupt, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<int64_t>(f.tellg());
    char b = 0;
    f.seekg(size - 10);
    f.read(&b, 1);
    b ^= 0x5A;
    f.seekp(size - 10);
    f.write(&b, 1);
  }
  EXPECT_EQ(ValidateCheckpoint(corrupt).code(),
            util::StatusCode::kFailedPrecondition);

  const std::string truncated = dir.path() + "/truncated.tfmr";
  fs::copy_file(path, truncated);
  fs::resize_file(truncated, fs::file_size(truncated) - 20);
  EXPECT_EQ(ValidateCheckpoint(truncated).code(),
            util::StatusCode::kIOError);
}

TEST_F(FaultToleranceTest, RejectedLoadNeverHalfMutatesTheModule) {
  ScratchDir dir("tfmr_atomic_load");
  const std::string path = dir.path() + "/ckpt_000000000.tfmr";
  util::Rng rng(17);
  nn::Mlp source(4, 8, 2, &rng);
  ASSERT_TRUE(SaveCheckpoint(source, path).ok());

  // A module whose FIRST parameter matches the file but whose later ones
  // don't: a per-entry validate-while-copying loader would mutate the
  // early parameters before noticing. Load must be all-or-nothing.
  nn::Mlp victim(4, 8, 4, &rng);
  std::vector<std::vector<float>> before;
  for (const auto& [name, param] : victim.NamedParameters()) {
    before.emplace_back(param.value().data(),
                        param.value().data() + param.value().numel());
  }
  ASSERT_FALSE(LoadCheckpoint(&victim, path).ok());
  size_t k = 0;
  for (const auto& [name, param] : victim.NamedParameters()) {
    const std::vector<float> after(param.value().data(),
                                   param.value().data() +
                                       param.value().numel());
    EXPECT_EQ(after, before[k]) << "parameter " << name
                                << " mutated by a rejected load";
    ++k;
  }
}

// ---------------------------------------------------------------------------
// The file's bytes, its every prefix, and corrupt counts and dims.
// ---------------------------------------------------------------------------

/// Saves a small GPT with every section: weights, AdamW slots refilled
/// from a fixed stream, an RNG holding a cached normal and a trainer
/// history.
std::string SavePinnedCheckpoint(const std::string& dir) {
  nn::GPTConfig config;
  config.vocab_size = 11;
  config.max_seq_len = 8;
  config.d_model = 8;
  config.n_layer = 1;
  config.n_head = 2;
  util::Rng init(5);
  nn::GPTModel model(config, &init);
  TrainState state;
  state.has_optimizer = true;
  state.optimizer = AdamW(model.Parameters(), AdamWOptions{}).ExportState();
  state.optimizer.step = 3;
  util::Rng fill(6);
  for (auto& [name, slot] : state.optimizer.slots) {
    slot = core::Tensor::RandomNormal(slot.shape(), &fill);
  }
  fill.Normal();
  state.has_rng = true;
  state.rng = fill.SaveState();
  state.has_trainer = true;
  state.next_step = 7;
  state.lr_scale = 0.5f;
  state.history = {{4, 2.5f, 1e-3f, 0.75f, 0},
                   {5, 2.25f, 1e-3f, 9.5f, 2},
                   {6, 2.0f, 5e-4f, 0.5f, 1}};
  const std::string path = dir + "/" + CheckpointFileName(7);
  EXPECT_TRUE(SaveCheckpoint(model, path, &state).ok());
  return path;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST_F(FaultToleranceTest, CheckpointBytesArePinned) {
  ScratchDir dir("tfmr_pin");
  const std::string bytes = FileBytes(SavePinnedCheckpoint(dir.path()));
  EXPECT_EQ(bytes.size(), 15342u);
  EXPECT_EQ(util::Crc32(bytes.data(), bytes.size()), 0x15c372dau);
}

TEST_F(FaultToleranceTest, EveryProperPrefixIsRejectedAsIOError) {
  ScratchDir dir("tfmr_prefixes");
  const std::string path = SavePinnedCheckpoint(dir.path());
  size_t len = fs::file_size(path);
  size_t wrong = 0;
  while (len-- > 0) {
    fs::resize_file(path, len);
    const util::Status s = ValidateCheckpoint(path);
    if (s.code() != util::StatusCode::kIOError && ++wrong <= 5) {
      ADD_FAILURE() << "prefix of " << len << " bytes: " << s;
    }
  }
  EXPECT_EQ(wrong, 0u);
}

/// Appends `v`'s bytes in host order, which util/bytes.h requires to be
/// little-endian.
template <typename T>
void Append(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

util::Status ValidateBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary) << bytes;
  return ValidateCheckpoint(path);
}

TEST_F(FaultToleranceTest, HugeCountsAreRejectedNotAllocated) {
  ScratchDir dir("tfmr_huge_counts");
  const uint64_t kHuge = uint64_t{1} << 62;
  std::string params = "TFMRCKP2";
  Append<uint32_t>(&params, 2);
  Append<uint32_t>(&params, 1);  // weights only
  Append<uint64_t>(&params, kHuge);
  EXPECT_EQ(ValidateBytes(dir.path() + "/params.tfmr", params).code(),
            util::StatusCode::kIOError);

  std::string history = "TFMRCKP2";
  Append<uint32_t>(&history, 2);
  Append<uint32_t>(&history, 1 | (1u << 3));  // weights and trainer
  Append<uint64_t>(&history, 0);              // no parameters
  Append<int64_t>(&history, 7);               // next_step
  Append<float>(&history, 1.0f);              // lr_scale
  Append<uint64_t>(&history, kHuge);
  EXPECT_EQ(ValidateBytes(dir.path() + "/history.tfmr", history).code(),
            util::StatusCode::kIOError);
}

TEST_F(FaultToleranceTest, V1DimsAreCappedLikeV2) {
  ScratchDir dir("tfmr_v1_dims");
  const auto v1_entry = [](std::initializer_list<int64_t> dims) {
    std::string bytes = "TFMRCKPT";
    Append<uint64_t>(&bytes, 1);
    Append<uint32_t>(&bytes, 1);
    bytes += "w";
    Append<uint32_t>(&bytes, static_cast<uint32_t>(dims.size()));
    for (int64_t d : dims) Append<int64_t>(&bytes, d);
    return bytes;
  };
  EXPECT_EQ(ValidateBytes(dir.path() + "/negative.bin", v1_entry({-3})).code(),
            util::StatusCode::kFailedPrecondition);
  const int64_t k2Pow31 = int64_t{1} << 31;
  EXPECT_EQ(ValidateBytes(dir.path() + "/huge.bin",
                          v1_entry({k2Pow31, k2Pow31}))
                .code(),
            util::StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Optimizer state round-trip (AdamW moments).
// ---------------------------------------------------------------------------

TEST_F(FaultToleranceTest, AdamWStateRoundTripIsBitExact) {
  const uint64_t kInitSeed = 21, kDataSeed = 22;
  auto make_model = [](uint64_t seed) {
    util::Rng r(seed);
    return nn::Mlp(4, 8, 2, &r);
  };

  // Reference: 3 warmup steps, snapshot, then 2 more uninterrupted steps.
  nn::Mlp ref = make_model(kInitSeed);
  AdamWOptions aopts;
  aopts.lr = 1e-2f;
  aopts.weight_decay = 0.1f;
  AdamW ref_opt(ref.Parameters(), aopts);
  util::Rng ref_rng(kDataSeed);
  auto ref_loss = MakeLossFn(&ref, &ref_rng);
  auto one_step = [](const std::function<core::Variable()>& loss_fn,
                     Optimizer* opt) {
    core::Variable loss = loss_fn();
    opt->ZeroGrad();
    core::Backward(loss);
    opt->Step();
  };
  for (int i = 0; i < 3; ++i) one_step(ref_loss, &ref_opt);

  ScratchDir dir("tfmr_adamw_rt");
  const std::string path = dir.path() + "/" + CheckpointFileName(3);
  TrainState state;
  state.has_optimizer = true;
  state.optimizer = ref_opt.ExportState();
  state.has_rng = true;
  state.rng = ref_rng.SaveState();
  state.has_trainer = true;
  state.next_step = 3;
  ASSERT_TRUE(SaveCheckpoint(ref, path, &state).ok());

  for (int i = 0; i < 2; ++i) one_step(ref_loss, &ref_opt);

  // Restore into a *differently initialized* model + fresh optimizer.
  nn::Mlp resumed = make_model(kInitSeed + 100);
  AdamW resumed_opt(resumed.Parameters(), aopts);
  util::Rng resumed_rng(0);
  TrainState loaded;
  ASSERT_TRUE(LoadCheckpoint(&resumed, path, &loaded).ok());
  ASSERT_TRUE(loaded.has_optimizer);
  ASSERT_TRUE(resumed_opt.ImportState(loaded.optimizer).ok());
  EXPECT_EQ(resumed_opt.step_count(), 3);
  resumed_rng.RestoreState(loaded.rng);

  auto resumed_loss = MakeLossFn(&resumed, &resumed_rng);
  for (int i = 0; i < 2; ++i) one_step(resumed_loss, &resumed_opt);

  // Same batches, same moments, same bias correction -> identical bits.
  EXPECT_EQ(MaxParamDiff(ref, resumed), 0.0f);
}

TEST_F(FaultToleranceTest, ImportStateRejectsWrongOptimizer) {
  util::Rng rng(31);
  nn::Mlp model(4, 8, 2, &rng);
  AdamWOptions aopts;
  AdamW adamw(model.Parameters(), aopts);
  Sgd sgd(model.Parameters(), 0.1f, 0.9f);
  OptimizerState state = adamw.ExportState();
  EXPECT_EQ(sgd.ImportState(state).code(),
            util::StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Trainer: kill-and-resume and divergence recovery.
// ---------------------------------------------------------------------------

struct TrainRig {
  std::unique_ptr<nn::Mlp> model;
  std::unique_ptr<AdamW> opt;
  std::unique_ptr<util::Rng> data_rng;
  std::unique_ptr<Trainer> trainer;
};

TrainRig MakeRun(uint64_t init_seed, const TrainerOptions& base,
            const std::string& ckpt_dir) {
  TrainRig r;
  util::Rng init(init_seed);
  r.model = std::make_unique<nn::Mlp>(4, 8, 2, &init);
  AdamWOptions aopts;
  aopts.lr = 1e-2f;
  r.opt = std::make_unique<AdamW>(r.model->Parameters(), aopts);
  r.data_rng = std::make_unique<util::Rng>(99);
  TrainerOptions topts = base;
  topts.checkpoint_dir = ckpt_dir;
  topts.model = r.model.get();
  topts.data_rng = r.data_rng.get();
  r.trainer = std::make_unique<Trainer>(r.opt.get(), topts);
  return r;
}

TEST_F(FaultToleranceTest, KillAndResumeIsBitExact) {
  TrainerOptions base;
  base.max_steps = 10;
  base.checkpoint_every = 3;
  base.keep_last_k = 2;

  // A: uninterrupted 10 steps.
  ScratchDir dir_a("tfmr_resume_a");
  TrainRig a = MakeRun(41, base, dir_a.path());
  ASSERT_TRUE(
      a.trainer->Run(MakeLossFn(a.model.get(), a.data_rng.get())).ok());

  // B: identical run killed after 6 steps (max_steps=6 stands in for the
  // kill; the final checkpoint at next_step=6 is what a crash would leave
  // from the periodic save).
  ScratchDir dir_b("tfmr_resume_b");
  TrainerOptions interrupted = base;
  interrupted.max_steps = 6;
  TrainRig b = MakeRun(41, interrupted, dir_b.path());
  ASSERT_TRUE(
      b.trainer->Run(MakeLossFn(b.model.get(), b.data_rng.get())).ok());

  // C: fresh process — different init, default RNG — resumed from B's
  // last checkpoint, finishing the 10 steps.
  TrainRig c = MakeRun(4141, base, dir_b.path());
  auto latest = LatestCheckpoint(dir_b.path());
  ASSERT_TRUE(latest.ok()) << latest.status();
  ASSERT_TRUE(c.trainer->ResumeFrom(latest.value()).ok());
  EXPECT_EQ(c.trainer->start_step(), 6);
  ASSERT_TRUE(
      c.trainer->Run(MakeLossFn(c.model.get(), c.data_rng.get())).ok());

  // The resumed run reproduces the uninterrupted one bit for bit: same
  // weights, same loss curve, same grad norms.
  EXPECT_EQ(MaxParamDiff(*a.model, *c.model), 0.0f);
  ASSERT_EQ(c.trainer->history().size(), a.trainer->history().size());
  for (size_t i = 0; i < a.trainer->history().size(); ++i) {
    EXPECT_EQ(a.trainer->history()[i].step, c.trainer->history()[i].step);
    EXPECT_EQ(a.trainer->history()[i].loss, c.trainer->history()[i].loss)
        << "step " << i;
    EXPECT_EQ(a.trainer->history()[i].grad_norm,
              c.trainer->history()[i].grad_norm);
  }
}

TEST_F(FaultToleranceTest, CheckpointRotationKeepsLastK) {
  ScratchDir dir("tfmr_rotate");
  TrainerOptions base;
  base.max_steps = 9;
  base.checkpoint_every = 2;
  base.keep_last_k = 2;
  TrainRig r = MakeRun(43, base, dir.path());
  ASSERT_TRUE(
      r.trainer->Run(MakeLossFn(r.model.get(), r.data_rng.get())).ok());
  size_t kept = 0;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    if (e.path().filename().string().rfind("ckpt_", 0) == 0) ++kept;
  }
  EXPECT_EQ(kept, 2u);
}

TEST_F(FaultToleranceTest, NaNLossRollsBackAndFinishes) {
  ScratchDir dir("tfmr_nan");
  TrainerOptions base;
  base.max_steps = 8;
  base.checkpoint_every = 2;
  base.max_recoveries = 2;
  base.lr_backoff = 0.5f;
  TrainRig r = MakeRun(44, base, dir.path());

  FaultInjector::Global().ArmAt(FaultSite::kLossNaN, {4});
  util::Status s =
      r.trainer->Run(MakeLossFn(r.model.get(), r.data_rng.get()));
  ASSERT_TRUE(s.ok()) << s;

  ASSERT_EQ(r.trainer->incidents().size(), 1u);
  const Incident& inc = r.trainer->incidents()[0];
  EXPECT_EQ(inc.kind, "nan-loss");
  EXPECT_EQ(inc.step, 4);
  EXPECT_NE(inc.action.find("rollback to step 4"), std::string::npos);
  EXPECT_FLOAT_EQ(inc.lr_scale_after, 0.5f);

  // The history is complete and contiguous despite the divergence...
  ASSERT_EQ(r.trainer->history().size(), 8u);
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(r.trainer->history()[static_cast<size_t>(i)].step, i);
  }
  // ...the re-run step is flagged, and later steps ran at the backed-off
  // learning rate.
  EXPECT_EQ(r.trainer->history()[4].event,
            static_cast<uint8_t>(StepEvent::kRecovered));
  EXPECT_FLOAT_EQ(r.trainer->history()[7].lr, 1e-2f * 0.5f);
}

TEST_F(FaultToleranceTest, GradExplosionSkipsStepWithoutCheckpoints) {
  TrainerOptions base;
  base.max_steps = 6;
  base.grad_explode_threshold = 1e6f;
  base.max_recoveries = 1;
  TrainRig r = MakeRun(45, base, /*ckpt_dir=*/"");

  FaultInjector::Global().ArmAt(FaultSite::kGradExplode, {2});
  util::Status s =
      r.trainer->Run(MakeLossFn(r.model.get(), r.data_rng.get()));
  ASSERT_TRUE(s.ok()) << s;
  ASSERT_EQ(r.trainer->incidents().size(), 1u);
  EXPECT_EQ(r.trainer->incidents()[0].kind, "grad-explosion");
  EXPECT_EQ(r.trainer->incidents()[0].action, "skip-step");
  ASSERT_EQ(r.trainer->history().size(), 6u);
  for (const StepRecord& rec : r.trainer->history()) {
    EXPECT_LT(rec.grad_norm, 1e6f);
  }
}

TEST_F(FaultToleranceTest, ExhaustedRecoveryBudgetSurfacesIncidentLog) {
  TrainerOptions base;
  base.max_steps = 6;
  base.max_recoveries = 2;
  TrainRig r = MakeRun(46, base, /*ckpt_dir=*/"");

  // Every attempt at the loss produces NaN: two recoveries, then give up.
  FaultInjector::Global().ArmAt(FaultSite::kLossNaN,
                                {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  util::Status s =
      r.trainer->Run(MakeLossFn(r.model.get(), r.data_rng.get()));
  EXPECT_EQ(s.code(), util::StatusCode::kInternal);
  EXPECT_NE(s.message().find("incident log"), std::string::npos) << s;
  EXPECT_NE(s.message().find("nan-loss"), std::string::npos) << s;
  EXPECT_EQ(r.trainer->incidents().size(), 3u);  // 2 recoveries + final
}

TEST_F(FaultToleranceTest, RollbackSkipsUnreadableCheckpoint) {
  ScratchDir dir("tfmr_skip_corrupt");
  TrainerOptions base;
  base.max_steps = 6;
  base.checkpoint_every = 2;
  base.keep_last_k = 3;
  base.max_recoveries = 1;
  TrainRig r = MakeRun(47, base, dir.path());

  // Step 5 diverges; the newest checkpoint (step 4) is unreadable, so the
  // rollback must fall back to the one before it (step 2).
  FaultInjector::Global().ArmAt(FaultSite::kLossNaN, {5});
  FaultInjector::Global().ArmAt(FaultSite::kCheckpointRead, {0});
  util::Status s =
      r.trainer->Run(MakeLossFn(r.model.get(), r.data_rng.get()));
  ASSERT_TRUE(s.ok()) << s;
  ASSERT_EQ(r.trainer->incidents().size(), 1u);
  EXPECT_NE(r.trainer->incidents()[0].action.find("rollback to step 2"),
            std::string::npos)
      << r.trainer->incidents()[0].action;
  ASSERT_EQ(r.trainer->history().size(), 6u);
}

TEST_F(FaultToleranceTest, TrainerSurvivesInjectedCheckpointWriteFailure) {
  ScratchDir dir("tfmr_ckpt_fail");
  TrainerOptions base;
  base.max_steps = 6;
  base.checkpoint_every = 2;
  TrainRig r = MakeRun(48, base, dir.path());

  // The save after step 2 tears (save #0 is the initial checkpoint, #1 is
  // at step 2); training must continue on the last good checkpoint.
  FaultInjector::Global().ArmAt(FaultSite::kCheckpointWrite, {1});
  util::Status s =
      r.trainer->Run(MakeLossFn(r.model.get(), r.data_rng.get()));
  ASSERT_TRUE(s.ok()) << s;
  ASSERT_EQ(r.trainer->history().size(), 6u);
  ASSERT_EQ(r.trainer->incidents().size(), 1u);
  EXPECT_EQ(r.trainer->incidents()[0].kind, "checkpoint-write");
  // The final (successful) checkpoint is resumable.
  auto latest = LatestCheckpoint(dir.path());
  ASSERT_TRUE(latest.ok());
  TrainRig fresh = MakeRun(480, base, dir.path());
  EXPECT_TRUE(fresh.trainer->ResumeFrom(latest.value()).ok());
  EXPECT_EQ(fresh.trainer->start_step(), 6);
}

// ---------------------------------------------------------------------------
// Injector thread safety: serving fires sites from scheduler, worker, and
// watchdog threads concurrently.
// ---------------------------------------------------------------------------

TEST_F(FaultToleranceTest, InjectorCountsExactlyUnderConcurrentFire) {
  // Four threads hammer one site 10k times each. Interleaving is free to
  // vary, but the occurrence count must be exact and the number of firings
  // must match the armed plan precisely.
  FaultInjector::Global().ArmAt(FaultSite::kDecodeNaN,
                                {0, 999, 20000, 39999, 400000});
  constexpr int kThreads = 4;
  constexpr int64_t kFiresPerThread = 10000;
  std::atomic<int64_t> fired{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int64_t i = 0; i < kFiresPerThread; ++i) {
        if (util::MaybeInjectFault(FaultSite::kDecodeNaN)) {
          fired.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(FaultInjector::Global().Occurrences(FaultSite::kDecodeNaN),
            kThreads * kFiresPerThread);
  // 400000 is past the end of the run; the other four indices must fire.
  EXPECT_EQ(fired.load(), 4);
  EXPECT_EQ(FaultInjector::Global().Fired(FaultSite::kDecodeNaN), 4);
}

TEST_F(FaultToleranceTest, InjectorRandomPlanCountsExactlyAcrossThreads) {
  FaultInjector::Global().ArmRandom(FaultSite::kSlotLeak, 0.25, 77);
  constexpr int kThreads = 4;
  constexpr int64_t kFiresPerThread = 10000;
  std::atomic<int64_t> fired{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int64_t i = 0; i < kFiresPerThread; ++i) {
        if (util::MaybeInjectFault(FaultSite::kSlotLeak)) fired.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const int64_t total = kThreads * kFiresPerThread;
  EXPECT_EQ(FaultInjector::Global().Occurrences(FaultSite::kSlotLeak), total);
  // Bernoulli(0.25) over 40k draws: the observed rate must be close, and
  // the injector's own tally must agree with what callers saw.
  EXPECT_EQ(FaultInjector::Global().Fired(FaultSite::kSlotLeak),
            fired.load());
  EXPECT_NEAR(static_cast<double>(fired.load()) / static_cast<double>(total),
              0.25, 0.02);
}

TEST_F(FaultToleranceTest, ServingFaultSitesHaveNames) {
  EXPECT_STREQ(util::FaultSiteName(FaultSite::kDecodeNaN), "decode-nan");
  EXPECT_STREQ(util::FaultSiteName(FaultSite::kWorkerStall), "worker-stall");
  EXPECT_STREQ(util::FaultSiteName(FaultSite::kSlotLeak), "slot-leak");
  EXPECT_STREQ(util::FaultSiteName(FaultSite::kOnTokenThrow),
               "on-token-throw");
}

// ---------------------------------------------------------------------------
// Distributed-training fault sites (kCommDrop, kCommCorrupt, kWorkerKill,
// kWorkerStraggle) and the checkpoint-rotation site (kCheckpointPrune):
// naming, counter exactness via AllCounts, and concurrency-safe arming.
// ---------------------------------------------------------------------------

TEST_F(FaultToleranceTest, DistFaultSitesHaveNames) {
  EXPECT_STREQ(util::FaultSiteName(FaultSite::kCommDrop), "comm-drop");
  EXPECT_STREQ(util::FaultSiteName(FaultSite::kCommCorrupt), "comm-corrupt");
  EXPECT_STREQ(util::FaultSiteName(FaultSite::kWorkerKill), "worker-kill");
  EXPECT_STREQ(util::FaultSiteName(FaultSite::kWorkerStraggle),
               "worker-straggle");
  EXPECT_STREQ(util::FaultSiteName(FaultSite::kCheckpointPrune),
               "checkpoint-prune");
  // Existing site numbering is stable: the dist sites appended after the
  // fleet sites, never renumbering them.
  EXPECT_EQ(static_cast<int>(FaultSite::kReplicaCanary), 9);
  EXPECT_EQ(static_cast<int>(FaultSite::kCommDrop), 10);
  EXPECT_EQ(static_cast<int>(FaultSite::kCheckpointPrune), 14);
}

TEST_F(FaultToleranceTest, DistSitesCountIndependentlyInAllCounts) {
  // Arm all four dist sites at once; firing one must not disturb the
  // counters of the others, and AllCounts must report each exactly.
  FaultInjector::Global().ArmAt(FaultSite::kCommDrop, {1});
  FaultInjector::Global().ArmAt(FaultSite::kCommCorrupt, {0, 2});
  FaultInjector::Global().ArmAt(FaultSite::kWorkerKill, {5});
  FaultInjector::Global().ArmAt(FaultSite::kWorkerStraggle, {0});
  for (int i = 0; i < 3; ++i) {
    util::MaybeInjectFault(FaultSite::kCommDrop);      // fires at 1
    util::MaybeInjectFault(FaultSite::kCommCorrupt);   // fires at 0, 2
  }
  util::MaybeInjectFault(FaultSite::kWorkerStraggle);  // fires at 0
  // kWorkerKill armed but never reached.

  const auto counts = FaultInjector::Global().AllCounts();
  ASSERT_EQ(counts.size(), static_cast<size_t>(util::kNumFaultSites));
  const auto& drop = counts[static_cast<size_t>(FaultSite::kCommDrop)];
  const auto& corrupt = counts[static_cast<size_t>(FaultSite::kCommCorrupt)];
  const auto& kill = counts[static_cast<size_t>(FaultSite::kWorkerKill)];
  const auto& straggle =
      counts[static_cast<size_t>(FaultSite::kWorkerStraggle)];
  EXPECT_EQ(drop.site, FaultSite::kCommDrop);
  EXPECT_EQ(drop.seen, 3);
  EXPECT_EQ(drop.fired, 1);
  EXPECT_EQ(corrupt.seen, 3);
  EXPECT_EQ(corrupt.fired, 2);
  EXPECT_EQ(kill.seen, 0);
  EXPECT_EQ(kill.fired, 0);
  EXPECT_EQ(straggle.seen, 1);
  EXPECT_EQ(straggle.fired, 1);
}

TEST_F(FaultToleranceTest, DistSiteCountsStayExactUnderConcurrentFire) {
  // Worker threads fire kWorkerKill concurrently, the way N training
  // ranks reach the step-boundary site in parallel.
  FaultInjector::Global().ArmAt(FaultSite::kWorkerKill, {0, 1000, 3999});
  constexpr int kThreads = 4;
  constexpr int64_t kFiresPerThread = 1000;
  std::atomic<int64_t> fired{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int64_t i = 0; i < kFiresPerThread; ++i) {
        if (util::MaybeInjectFault(FaultSite::kWorkerKill)) {
          fired.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto counts = FaultInjector::Global().AllCounts();
  const auto& kill = counts[static_cast<size_t>(FaultSite::kWorkerKill)];
  EXPECT_EQ(kill.seen, kThreads * kFiresPerThread);
  EXPECT_EQ(kill.fired, 3);
  EXPECT_EQ(fired.load(), 3);
}

// ---------------------------------------------------------------------------
// Checkpoint rotation: PruneCheckpoints and crash-mid-prune robustness.
// ---------------------------------------------------------------------------

TEST_F(FaultToleranceTest, PruneKeepsNewestAndSweepsStaleTmpFiles) {
  ScratchDir dir("tfmr_prune");
  util::Rng rng(12);
  nn::Mlp model(4, 8, 2, &rng);
  for (int64_t step : {0, 2, 4, 6}) {
    ASSERT_TRUE(
        SaveCheckpoint(model, dir.path() + "/" + CheckpointFileName(step))
            .ok());
  }
  // Torn-write debris and an unrelated file: the former is swept, the
  // latter untouched.
  { std::ofstream(dir.path() + "/ckpt_000000008.tfmr.tmp") << "torn"; }
  { std::ofstream(dir.path() + "/notes.txt") << "keep me"; }

  ASSERT_TRUE(PruneCheckpoints(dir.path(), 2).ok());

  std::vector<std::string> left;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    left.push_back(e.path().filename().string());
  }
  std::sort(left.begin(), left.end());
  EXPECT_EQ(left, (std::vector<std::string>{
                      "ckpt_000000004.tfmr", "ckpt_000000006.tfmr",
                      "notes.txt"}));
}

TEST_F(FaultToleranceTest, CrashMidPruneNeverConfusesLatestCheckpoint) {
  ScratchDir dir("tfmr_prune_crash");
  util::Rng rng(13);
  nn::Mlp model(4, 8, 2, &rng);
  for (int64_t step : {0, 2, 4, 6}) {
    ASSERT_TRUE(
        SaveCheckpoint(model, dir.path() + "/" + CheckpointFileName(step))
            .ok());
  }
  // The sweep dies on its second unlink: step 0 is gone, step 2 survives.
  FaultInjector::Global().ArmAt(FaultSite::kCheckpointPrune, {1});
  util::Status s = PruneCheckpoints(dir.path(), 1);
  EXPECT_EQ(s.code(), util::StatusCode::kIOError);
  FaultInjector::Global().Disarm();

  // Oldest-first deletion means the newest checkpoint is always intact,
  // and the leftovers are all loadable checkpoints — no partial state.
  auto latest = LatestCheckpoint(dir.path());
  ASSERT_TRUE(latest.ok());
  EXPECT_NE(latest.value().find("ckpt_000000006.tfmr"), std::string::npos);
  EXPECT_TRUE(ValidateCheckpoint(latest.value()).ok());
  EXPECT_FALSE(fs::exists(dir.path() + "/" + CheckpointFileName(0)));
  EXPECT_TRUE(fs::exists(dir.path() + "/" + CheckpointFileName(2)));

  // The next (un-faulted) prune finishes the job.
  ASSERT_TRUE(PruneCheckpoints(dir.path(), 1).ok());
  size_t kept = 0;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    (void)e;
    ++kept;
  }
  EXPECT_EQ(kept, 1u);
}

TEST_F(FaultToleranceTest, TrainerRotationSurvivesCrashMidPrune) {
  ScratchDir dir("tfmr_prune_trainer");
  TrainerOptions base;
  base.max_steps = 6;
  base.checkpoint_every = 2;
  base.keep_last_k = 2;
  TrainRig r = MakeRun(49, base, dir.path());

  // Saves land at steps 0, 2, 4, 6; the first over-budget unlink happens
  // during the save at step 4 and is made to crash. The run must finish,
  // the incident must be recorded, and the final state must be resumable.
  FaultInjector::Global().ArmAt(FaultSite::kCheckpointPrune, {0});
  util::Status s =
      r.trainer->Run(MakeLossFn(r.model.get(), r.data_rng.get()));
  ASSERT_TRUE(s.ok()) << s;
  ASSERT_EQ(r.trainer->incidents().size(), 1u);
  EXPECT_EQ(r.trainer->incidents()[0].kind, "checkpoint-write");
  EXPECT_NE(r.trainer->incidents()[0].detail.find("kCheckpointPrune"),
            std::string::npos)
      << r.trainer->incidents()[0].detail;
  ASSERT_EQ(r.trainer->history().size(), 6u);

  // The later prune (step 6's save) finished the rotation; the newest
  // checkpoint is the final one and loads cleanly.
  auto latest = LatestCheckpoint(dir.path());
  ASSERT_TRUE(latest.ok());
  TrainRig fresh = MakeRun(490, base, dir.path());
  ASSERT_TRUE(fresh.trainer->ResumeFrom(latest.value()).ok());
  EXPECT_EQ(fresh.trainer->start_step(), 6);
  size_t kept = 0;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    if (e.path().filename().string().rfind("ckpt_", 0) == 0) ++kept;
  }
  EXPECT_EQ(kept, 2u);
}

}  // namespace
}  // namespace llm::train
