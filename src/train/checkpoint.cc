#include "train/checkpoint.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>

#include "util/bytes.h"
#include "util/crc32.h"
#include "util/fault.h"

namespace llm::train {

namespace {

constexpr char kMagicV1[8] = {'T', 'F', 'M', 'R', 'C', 'K', 'P', 'T'};
constexpr char kMagicV2[8] = {'T', 'F', 'M', 'R', 'C', 'K', 'P', '2'};
constexpr char kFooterV2[8] = {'T', 'F', 'M', 'R', 'E', 'N', 'D', '2'};
constexpr uint32_t kVersion2 = 2;

// Section bits in the v2 header mask.
constexpr uint32_t kSectionOptimizer = 1u << 1;
constexpr uint32_t kSectionRng = 1u << 2;
constexpr uint32_t kSectionTrainer = 1u << 3;

// Corrupt bytes can decode to absurd sizes; cap them so a bad file yields
// a Status instead of a multi-gigabyte allocation or an aborting Tensor.
constexpr uint32_t kMaxNameLen = 1u << 16;
constexpr uint32_t kMaxNdim = 16;
constexpr int64_t kMaxDim = int64_t{1} << 32;
constexpr int64_t kMaxNumel = int64_t{1} << 28;  // 1 GiB of float32

/// name | ndim | dims | crc32 | data — shared by weights and opt slots.
void WriteTensorEntry(util::ByteWriter* out, const std::string& name,
                      const core::Tensor& t) {
  out->String(name);
  out->Put(static_cast<uint32_t>(t.ndim()));
  for (int i = 0; i < t.ndim(); ++i) out->Put(t.dim(i));
  const size_t bytes = static_cast<size_t>(t.numel()) * sizeof(float);
  out->Put(util::Crc32(t.data(), bytes));
  out->Bytes(t.data(), bytes);
}

/// Reads one tensor entry into freshly-allocated storage, verifying the
/// checksum when the entry has one (a v1 entry is a v2 entry without its
/// crc). Storage is allocated only once the file holds its bytes. `what`
/// names the section for error messages.
util::Status ReadTensorEntry(util::ByteReader& in, const std::string& path,
                             const char* what, bool has_crc,
                             std::string* name, core::Tensor* t) {
  const auto truncated = [&](const char* field) {
    return util::Status::IOError(std::string("truncated checkpoint (") +
                                 what + " " + field + "): " + path);
  };
  const auto corrupt = [&](const std::string& detail) {
    return util::Status::FailedPrecondition(
        std::string("corrupt checkpoint (") + what + " " + detail +
        "): " + path);
  };
  uint32_t ndim = 0;
  if (!in.String(name, kMaxNameLen)) return truncated("name");
  if (!in.Get(&ndim)) return truncated("ndim");
  if (ndim > kMaxNdim) return corrupt("ndim " + std::to_string(ndim));
  core::Shape shape(ndim);
  for (int64_t& d : shape) {
    if (!in.Get(&d)) return truncated("dims");
    if (d < 0 || d > kMaxDim) return corrupt("dim " + std::to_string(d));
  }
  int64_t numel = 1;
  for (int64_t d : shape) {
    if (d != 0 && numel > kMaxNumel / d) {
      return corrupt("implausible element count");
    }
    numel *= d;
  }
  uint32_t stored_crc = 0;
  if (has_crc && !in.Get(&stored_crc)) return truncated("crc");
  const size_t bytes = static_cast<size_t>(numel) * sizeof(float);
  if (in.remaining() < bytes) return truncated("data");
  *t = core::Tensor(shape);
  in.Bytes(t->data(), bytes);
  if (!has_crc) return util::Status::OK();
  const uint32_t computed = util::Crc32(t->data(), bytes);
  if (computed != stored_crc) {
    return util::Status::FailedPrecondition(
        std::string("checksum mismatch for ") + what + " '" + *name +
        "' in " + path + " (file says " + std::to_string(stored_crc) +
        ", data hashes to " + std::to_string(computed) + ")");
  }
  return util::Status::OK();
}

/// Architecture-compatibility gate: the loaded parameter set must match
/// the module's by name and shape exactly (strict round-trip). Pure check,
/// no mutation — shared by LoadCheckpoint and ValidateCheckpoint.
util::Status CheckCompatible(
    const nn::Module& module,
    const std::vector<std::pair<std::string, core::Tensor>>& loaded,
    const std::string& path) {
  std::map<std::string, core::Variable> by_name;
  for (auto& [name, var] : module.NamedParameters()) {
    by_name.emplace(name, var);
  }
  if (loaded.size() != by_name.size()) {
    return util::Status::FailedPrecondition(
        "checkpoint has " + std::to_string(loaded.size()) +
        " params, module has " + std::to_string(by_name.size()) + ": " +
        path);
  }
  for (const auto& [name, tensor] : loaded) {
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      return util::Status::NotFound("unknown parameter in checkpoint: " +
                                    name);
    }
    if (it->second.value().shape() != tensor.shape()) {
      return util::Status::FailedPrecondition(
          "shape mismatch for " + name + ": file " +
          core::ShapeToString(tensor.shape()) + " vs module " +
          core::ShapeToString(it->second.value().shape()));
    }
  }
  return util::Status::OK();
}

/// Copies loaded tensors into the module's parameters by name. Two-phase:
/// CheckCompatible must pass over the whole set before the first byte is
/// written, so a rejected file never leaves the module half-mutated.
util::Status AssignParams(
    nn::Module* module,
    const std::vector<std::pair<std::string, core::Tensor>>& loaded,
    const std::string& path) {
  LLM_RETURN_IF_ERROR(CheckCompatible(*module, loaded, path));
  std::map<std::string, core::Variable> by_name;
  for (auto& [name, var] : module->NamedParameters()) {
    by_name.emplace(name, var);
  }
  for (const auto& [name, tensor] : loaded) {
    core::Tensor& dst = by_name.find(name)->second.mutable_value();
    std::memcpy(dst.data(), tensor.data(),
                static_cast<size_t>(dst.numel()) * sizeof(float));
  }
  return util::Status::OK();
}

/// Reads and structurally validates the whole file (v1 or v2): magic,
/// version, tensor checksums, optional sections, footer. Fills `loaded`
/// and `parsed` on success; touches no module. The single parse path
/// behind both LoadCheckpoint and ValidateCheckpoint.
util::Status ParseCheckpointFile(
    const std::string& path,
    std::vector<std::pair<std::string, core::Tensor>>* loaded,
    TrainState* parsed) {
  if (util::MaybeInjectFault(util::FaultSite::kCheckpointRead)) {
    return util::Status::IOError("injected fault: unreadable checkpoint " +
                                 path);
  }
  const util::StatusOr<std::vector<uint8_t>> file = util::ReadFile(path);
  if (!file.ok()) return util::Status::IOError(file.status().message());
  util::ByteReader in(file.value());
  const auto truncated = [&](const char* what) {
    return util::Status::IOError(std::string("truncated checkpoint (") +
                                 what + "): " + path);
  };
  char magic[8] = {};
  if (!in.Bytes(magic, sizeof(magic))) return truncated("magic");
  // Legacy v1: no version, no mask, no checksums, no sections, no footer;
  // weights only, loadable but carries no training state.
  const bool v1 = std::memcmp(magic, kMagicV1, sizeof(kMagicV1)) == 0;
  if (!v1 && std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) != 0) {
    return util::Status::FailedPrecondition("bad checkpoint magic: " + path);
  }
  uint32_t mask = 1;  // weights
  if (!v1) {
    uint32_t version = 0;
    if (!in.Get(&version)) return truncated("version");
    if (version != kVersion2) {
      return util::Status::FailedPrecondition(
          "unsupported checkpoint version " + std::to_string(version) +
          ": " + path);
    }
    if (!in.Get(&mask)) return truncated("mask");
  }

  // No count below sizes anything: each entry or record must be read
  // from bytes the file holds, so a corrupt count ends in "truncated".
  uint64_t count = 0;
  if (!in.Get(&count)) return truncated("param count");
  for (uint64_t i = 0; i < count; ++i) {
    std::string name;
    core::Tensor t;
    LLM_RETURN_IF_ERROR(ReadTensorEntry(in, path, "param", !v1, &name, &t));
    loaded->emplace_back(std::move(name), std::move(t));
  }
  if (v1) return util::Status::OK();

  if (mask & kSectionOptimizer) {
    if (!in.String(&parsed->optimizer.type, kMaxNameLen) ||
        !in.Get(&parsed->optimizer.step)) {
      return truncated("optimizer");
    }
    uint64_t slots = 0;
    if (!in.Get(&slots)) return truncated("slot count");
    for (uint64_t i = 0; i < slots; ++i) {
      std::string name;
      core::Tensor t;
      LLM_RETURN_IF_ERROR(ReadTensorEntry(in, path, "slot", true, &name, &t));
      parsed->optimizer.slots.emplace_back(std::move(name), std::move(t));
    }
    parsed->has_optimizer = true;
  }
  if (mask & kSectionRng) {
    uint8_t have_cached = 0;
    if (!in.Bytes(parsed->rng.s, sizeof(parsed->rng.s)) ||
        !in.Get(&have_cached) || !in.Get(&parsed->rng.cached_normal)) {
      return truncated("rng");
    }
    parsed->rng.have_cached_normal = have_cached != 0;
    parsed->has_rng = true;
  }
  if (mask & kSectionTrainer) {
    uint64_t records = 0;
    if (!in.Get(&parsed->next_step) || !in.Get(&parsed->lr_scale) ||
        !in.Get(&records)) {
      return truncated("trainer");
    }
    for (uint64_t i = 0; i < records; ++i) {
      StepRecord r;
      if (!in.Get(&r.step) || !in.Get(&r.loss) || !in.Get(&r.lr) ||
          !in.Get(&r.grad_norm) || !in.Get(&r.event)) {
        return truncated("history");
      }
      parsed->history.push_back(r);
    }
    parsed->has_trainer = true;
  }
  char footer[8] = {};
  if (!in.Bytes(footer, sizeof(footer))) return truncated("footer");
  if (std::memcmp(footer, kFooterV2, sizeof(kFooterV2)) != 0) {
    return util::Status::FailedPrecondition("bad checkpoint footer: " + path);
  }
  return util::Status::OK();
}

}  // namespace

util::Status SaveCheckpoint(const nn::Module& module, const std::string& path,
                            const TrainState* state) {
  uint32_t mask = 1;  // weights, always present
  if (state != nullptr) {
    if (state->has_optimizer) mask |= kSectionOptimizer;
    if (state->has_rng) mask |= kSectionRng;
    if (state->has_trainer) mask |= kSectionTrainer;
  }
  util::ByteWriter out;
  out.Bytes(kMagicV2, sizeof(kMagicV2));
  out.Put(kVersion2);
  out.Put(mask);

  // Injected torn write (counted once per save): stop partway through
  // the parameter list, as a crash would. The tmp file is abandoned
  // un-renamed, so the destination path is never corrupted.
  const bool tear = util::MaybeInjectFault(util::FaultSite::kCheckpointWrite);
  const nn::NamedParams params = module.NamedParameters();
  out.Put<uint64_t>(params.size());
  size_t written = 0;
  for (const auto& [name, var] : params) {
    if (tear && written >= params.size() / 2) {
      const std::string tmp = path + ".tmp";
      (void)util::WriteFile(tmp, out.bytes());
      return util::Status::IOError(
          "injected fault: torn checkpoint write at " + tmp);
    }
    WriteTensorEntry(&out, name, var.value());
    ++written;
  }

  if (mask & kSectionOptimizer) {
    out.String(state->optimizer.type);
    out.Put(state->optimizer.step);
    out.Put<uint64_t>(state->optimizer.slots.size());
    for (const auto& [name, t] : state->optimizer.slots) {
      WriteTensorEntry(&out, name, t);
    }
  }
  if (mask & kSectionRng) {
    out.Bytes(state->rng.s, sizeof(state->rng.s));
    out.Put<uint8_t>(state->rng.have_cached_normal ? 1 : 0);
    out.Put(state->rng.cached_normal);
  }
  if (mask & kSectionTrainer) {
    out.Put(state->next_step);
    out.Put(state->lr_scale);
    out.Put<uint64_t>(state->history.size());
    for (const StepRecord& r : state->history) {
      out.Put(r.step);
      out.Put(r.loss);
      out.Put(r.lr);
      out.Put(r.grad_norm);
      out.Put(r.event);
    }
  }
  out.Bytes(kFooterV2, sizeof(kFooterV2));
  // Atomic publish: readers see either the old complete file or the new
  // complete file, never a partial one.
  return util::ReplaceFile(path, out.bytes());
}

util::Status LoadCheckpoint(nn::Module* module, const std::string& path,
                            TrainState* state) {
  if (module == nullptr) {
    return util::Status::InvalidArgument("null module");
  }
  std::vector<std::pair<std::string, core::Tensor>> loaded;
  TrainState parsed;
  LLM_RETURN_IF_ERROR(ParseCheckpointFile(path, &loaded, &parsed));
  // All parsing and validation passed — only now mutate the module and
  // outputs (AssignParams re-checks compatibility before the first write),
  // so a rejected file leaves everything untouched.
  LLM_RETURN_IF_ERROR(AssignParams(module, loaded, path));
  if (state != nullptr) *state = std::move(parsed);
  return util::Status::OK();
}

util::Status ValidateCheckpoint(const std::string& path,
                                const nn::Module* module) {
  std::vector<std::pair<std::string, core::Tensor>> loaded;
  TrainState parsed;
  LLM_RETURN_IF_ERROR(ParseCheckpointFile(path, &loaded, &parsed));
  if (module != nullptr) {
    LLM_RETURN_IF_ERROR(CheckCompatible(*module, loaded, path));
  }
  return util::Status::OK();
}

std::string CheckpointFileName(int64_t next_step) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt_%09lld.tfmr",
                static_cast<long long>(next_step));
  return buf;
}

namespace {

// Exactly ckpt_<digits>.tfmr, as CheckpointFileName writes — stray files
// that merely share the prefix/suffix (ckpt_old.tfmr, editor backups,
// subdirectories) are not checkpoints.
bool IsCheckpointFileName(const std::string& name) {
  if (name.rfind("ckpt_", 0) != 0) return false;
  if (name.size() < 11 || name.substr(name.size() - 5) != ".tfmr") {
    return false;
  }
  const std::string step = name.substr(5, name.size() - 10);
  return !step.empty() &&
         step.find_first_not_of("0123456789") == std::string::npos;
}

}  // namespace

util::StatusOr<std::string> LatestCheckpoint(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    // A missing (or not-a-directory) checkpoint dir means "no checkpoints",
    // the same answer an empty dir gives — NotFound, never a malformed
    // path. Real I/O problems (e.g. permissions) stay IOError.
    if (ec == std::errc::no_such_file_or_directory ||
        ec == std::errc::not_a_directory) {
      return util::Status::NotFound("no checkpoint dir: " + dir);
    }
    return util::Status::IOError("cannot list checkpoint dir " + dir + ": " +
                                 ec.message());
  }
  std::string best_name;
  std::string best;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec) || ec) continue;
    const std::string name = entry.path().filename().string();
    if (!IsCheckpointFileName(name)) continue;
    // Zero-padded step numbers make lexicographic order step order.
    if (name > best_name) {
      best_name = name;
      best = entry.path().string();
    }
  }
  if (best.empty()) {
    return util::Status::NotFound("no checkpoints under " + dir);
  }
  return best;
}

util::Status PruneCheckpoints(const std::string& dir, int keep_last_k) {
  if (keep_last_k < 1) {
    return util::Status::InvalidArgument("keep_last_k must be >= 1, got " +
                                         std::to_string(keep_last_k));
  }
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    if (ec == std::errc::no_such_file_or_directory ||
        ec == std::errc::not_a_directory) {
      return util::Status::OK();  // nothing to prune
    }
    return util::Status::IOError("cannot list checkpoint dir " + dir + ": " +
                                 ec.message());
  }
  std::vector<std::string> names;
  std::vector<std::string> stale_tmps;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec) || ec) continue;
    const std::string name = entry.path().filename().string();
    if (IsCheckpointFileName(name)) {
      names.push_back(name);
    } else if (name.size() > 4 &&
               name.substr(name.size() - 4) == ".tmp" &&
               IsCheckpointFileName(name.substr(0, name.size() - 4))) {
      // A crash between SaveCheckpoint's write and its rename leaves
      // "<ckpt>.tmp" behind; it is never a valid checkpoint, only debris.
      stale_tmps.push_back(name);
    }
  }
  // Oldest debris and checkpoints go first, so an aborted sweep can only
  // leave extra OLD files — the newest keep_last_k are never at risk.
  std::sort(names.begin(), names.end());
  std::sort(stale_tmps.begin(), stale_tmps.end());
  const auto unlink = [&](const std::string& name) -> util::Status {
    if (util::MaybeInjectFault(util::FaultSite::kCheckpointPrune)) {
      return util::Status::IOError(
          "injected fault: crashed pruning " + name +
          " (FaultSite::kCheckpointPrune)");
    }
    std::error_code rm_ec;
    std::filesystem::remove(std::filesystem::path(dir) / name, rm_ec);
    if (rm_ec) {
      return util::Status::IOError("cannot prune " + name + " under " + dir +
                                   ": " + rm_ec.message());
    }
    return util::Status::OK();
  };
  for (const std::string& name : stale_tmps) {
    LLM_RETURN_IF_ERROR(unlink(name));
  }
  const size_t keep = static_cast<size_t>(keep_last_k);
  if (names.size() > keep) {
    for (size_t i = 0; i + keep < names.size(); ++i) {
      LLM_RETURN_IF_ERROR(unlink(names[i]));
    }
  }
  return util::Status::OK();
}

}  // namespace llm::train
