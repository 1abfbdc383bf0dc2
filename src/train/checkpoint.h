// Checkpointing: crash-safe binary save/load of a module's parameters and,
// in format v2, the full training state needed for bit-exact resume.
//
// v2 format (little-endian; written and read through util/bytes.h, whose
// static_assert admits only little-endian hosts):
//   magic "TFMRCKP2" (8 bytes) | uint32 version=2 | uint32 section_mask
//   [weights]   uint64 param_count, then per param:
//               uint32 name_len | name | uint32 ndim | int64 dims[ndim] |
//               uint32 crc32(data) | float32 data[numel]
//   [optimizer] (mask bit 1) uint32 type_len | type | int64 step |
//               uint64 slot_count, then per slot: same layout as a param
//   [rng]       (mask bit 2) uint64 s[4] | uint8 have_cached | double cached
//   [trainer]   (mask bit 3) int64 next_step | float lr_scale |
//               uint64 history_count, then per record:
//               int64 step | float loss | float lr | float grad_norm |
//               uint8 event
//   footer magic "TFMREND2" (8 bytes) — catches truncated tails
//
// Writes are atomic: the whole file is built in memory, written to
// "<path>.tmp" and only then renamed over <path>, so a crash mid-write
// never leaves a torn file at the final path (nothing is fsynced). A save
// or a load holds the whole file in memory once. Every tensor carries a
// CRC32; LoadCheckpoint reports a missing or truncated file as kIOError
// and bad magic / checksum mismatch / shape drift / an implausible rank or
// dim as kFailedPrecondition, never a crash or a silent misload: no count
// in the file sizes an allocation before the file holds the bytes it
// counts.
//
// v1 files ("TFMRCKPT": no version, no mask, no checksums, weights only:
// a v1 entry is a v2 entry without its crc32) still load read-only for
// weights, under the same caps; resuming training from them is rejected.
#ifndef TFMR_TRAIN_CHECKPOINT_H_
#define TFMR_TRAIN_CHECKPOINT_H_

#include <string>

#include "nn/module.h"
#include "train/trainer.h"
#include "util/rng.h"
#include "util/status.h"

namespace llm::train {

/// Everything beyond the weights that a resumed run needs. Absent
/// sections leave their has_* flag false.
struct TrainState {
  bool has_optimizer = false;
  OptimizerState optimizer;

  bool has_rng = false;
  util::RngState rng;

  bool has_trainer = false;
  int64_t next_step = 0;
  float lr_scale = 1.0f;
  std::vector<StepRecord> history;
};

/// Writes all named parameters of `module` (and, when `state` is non-null,
/// its sections) to `path` in format v2, atomically.
util::Status SaveCheckpoint(const nn::Module& module, const std::string& path,
                            const TrainState* state = nullptr);

/// Loads parameters by name into `module` (v1 or v2). Every parameter in
/// the module must be present in the file with a matching shape; extra
/// entries in the file are an error (strict round-trip). When `state` is
/// non-null, also loads whichever optional sections the file carries.
/// Atomic with respect to `module`: the file is parsed and fully
/// validated (checksums, names, shapes) before any parameter is written,
/// so a rejected checkpoint leaves the module bit-identical to before.
util::Status LoadCheckpoint(nn::Module* module, const std::string& path,
                            TrainState* state = nullptr);

/// Parses and fully validates the checkpoint at `path` — magic, version,
/// per-tensor CRC32s, section structure, footer — without touching any
/// module. When `module` is non-null, additionally checks architecture
/// compatibility: the file's parameter set must match the module's by
/// name and shape exactly. This is the pre-swap gate the serving fleet
/// runs before hot-reloading weights into a live replica: a corrupt or
/// architecturally incompatible file is rejected here, before any drain
/// or swap is attempted.
util::Status ValidateCheckpoint(const std::string& path,
                                const nn::Module* module = nullptr);

/// Newest checkpoint (by step number encoded in the filename) that
/// SaveCheckpoint wrote under `dir`; kNotFound when there is none.
util::StatusOr<std::string> LatestCheckpoint(const std::string& dir);

/// Rotation: deletes all but the `keep_last_k` newest checkpoints under
/// `dir`, plus any stale "<ckpt>.tmp" leftovers from torn writes. Deletion
/// runs newest-survivor-outward (oldest first), so a crash mid-prune —
/// modelled by FaultSite::kCheckpointPrune, which aborts the sweep with
/// kIOError — can only leave extra OLD files behind, never touch the
/// newest k; LatestCheckpoint's answer is unaffected and the next prune
/// finishes the job. A missing dir is OK (nothing to prune).
util::Status PruneCheckpoints(const std::string& dir, int keep_last_k);

/// Filename (not path) the trainer uses for the checkpoint taken before
/// running `next_step`, e.g. "ckpt_000000042.tfmr". Zero-padded so
/// lexicographic order equals step order.
std::string CheckpointFileName(int64_t next_step);

}  // namespace llm::train

#endif  // TFMR_TRAIN_CHECKPOINT_H_
