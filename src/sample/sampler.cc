#include "sample/sampler.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>

namespace llm::sample {
namespace {

// One sampling thread's buffer, grown to the largest vocabulary the thread
// has sampled from and kept until the thread exits.
template <typename T>
struct ThreadBuffer {
  std::unique_ptr<T[]> data;
  int64_t size = 0;

  T* Fit(int64_t n) {
    if (size < n) {
      data = std::make_unique_for_overwrite<T[]>(static_cast<size_t>(n));
      size = n;
    }
    return data.get();
  }
};

thread_local ThreadBuffer<float> t_probs;
thread_local ThreadBuffer<uint32_t> t_order;

// Sampling order: probability descending, then id ascending. The bits of a
// non-negative float grow with its value, so the key ascends in that order.
uint32_t Rank(float p) {
  uint32_t bits = 0;
  std::memcpy(&bits, &p, sizeof(bits));
  return ~bits;
}

uint64_t Key(const float* probs, uint32_t id) {
  return (static_cast<uint64_t>(Rank(probs[id])) << 32) | id;
}

constexpr size_t kInsertionMax = 32;

void InsertionSort(const float* probs, uint32_t* ids, size_t n) {
  uint64_t keys[kInsertionMax];
  for (size_t i = 0; i < n; ++i) keys[i] = Key(probs, ids[i]);
  for (size_t i = 1; i < n; ++i) {
    const uint64_t key = keys[i];
    size_t j = i;
    for (; j > 0 && keys[j - 1] > key; --j) keys[j] = keys[j - 1];
    keys[j] = key;
  }
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<uint32_t>(keys[i]);
}

// Sorts ids[0, n) by key with an in-place MSD radix sort, and hands the ids
// to `take` in sorted order until it returns true; buckets past that point
// stay unsorted. Each pass splits the span of the range's keys, from the
// lowest, into up to 256 buckets, about 8 ids a bucket. Returns whether
// `take` stopped.
template <typename Take>
bool SortAndTake(const float* probs, uint32_t* ids, size_t n, Take& take) {
  if (n <= kInsertionMax) {
    InsertionSort(probs, ids, n);
    for (size_t i = 0; i < n; ++i) {
      if (take(ids[i])) return true;
    }
    return false;
  }
  uint64_t lo = ~uint64_t{0}, hi = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = Key(probs, ids[i]);
    lo = std::min(lo, key);
    hi = std::max(hi, key);
  }
  // Keys hold distinct ids, so lo < hi and the digits split the range.
  const int bits = std::clamp(static_cast<int>(std::bit_width(n)) - 3, 1, 8);
  const int shift =
      std::max(static_cast<int>(std::bit_width(hi - lo)) - bits, 0);
  const uint32_t buckets = static_cast<uint32_t>((hi - lo) >> shift) + 1;
  const auto digit = [&](uint32_t id) {
    return static_cast<uint32_t>((Key(probs, id) - lo) >> shift);
  };
  uint32_t count[256] = {};
  for (size_t i = 0; i < n; ++i) ++count[digit(ids[i])];
  uint32_t head[256], tail[256];
  uint32_t end = 0;
  for (uint32_t b = 0; b < buckets; ++b) {
    head[b] = end;
    end += count[b];
    tail[b] = end;
  }
  // American flag permutation: each id moves once, straight to its bucket.
  for (uint32_t b = 0; b < buckets; ++b) {
    while (head[b] < tail[b]) {
      uint32_t id = ids[head[b]];
      uint32_t d = digit(id);
      while (d != b) {
        std::swap(id, ids[head[d]++]);
        d = digit(id);
      }
      ids[head[b]++] = id;
    }
  }
  size_t begin = 0;
  for (uint32_t b = 0; b < buckets; ++b) {
    if (count[b] > 0 && SortAndTake(probs, ids + begin, count[b], take)) {
      return true;
    }
    begin += count[b];
  }
  return false;
}

// The truncation's running state: the ids kept so far, in sampling order,
// and their mass, summed in that order.
struct Cut {
  int64_t limit;  // top-k, or the vocabulary
  bool use_top_p;
  float top_p;
  int64_t keep = 0;
  double mass = 0.0;

  // Keeps one more id; returns true once the cut is reached, which it is
  // by the vocabulary's last id at the latest.
  bool Take(float p) {
    mass += p;
    ++keep;
    return keep == limit || (use_top_p && mass >= top_p);
  }
};

// A double sum of floats that are all >= 2^-29 (multiples of 2^-52), or 0,
// is exact while it stays below 2, so it does not depend on the order of
// its terms. Probabilities are at most 1 and sum to about 1, so a key
// below this bound adds to the mass exactly.
constexpr uint64_t kExactKeyEnd = uint64_t{~0x31000000u} << 32;  // 2^-29

constexpr int kTopBits = 11;

// Keeps ids 0..n-1 in sampling order until `cut` is reached, and returns
// the key of the last one kept: the kept ids are those whose keys are at
// most that. One pass counts the ids in each bucket of up to kTopBits
// bits of their keys (about 16 ids a bucket) and sums their probabilities.
// A bucket of keys below kExactKeyEnd that cannot hold the cut is kept
// whole at its exact sum. Only then are ids ordered, in t_order: those of
// the bucket the cut falls in if it is such a bucket, else those of every
// bucket from there on, each sorted and taken id by id.
uint64_t OrderAndCut(const float* probs, size_t n, Cut* cut) {
  uint64_t last = 0;
  auto take = [&](uint32_t id) {
    last = Key(probs, id);
    return cut->Take(probs[id]);
  };
  uint32_t rank_lo = ~0u, rank_hi = 0;
  for (size_t i = 0; i < n; ++i) {
    rank_lo = std::min(rank_lo, Rank(probs[i]));
    rank_hi = std::max(rank_hi, Rank(probs[i]));
  }
  // Every key lies in [lo, hi].
  const uint64_t lo = static_cast<uint64_t>(rank_lo) << 32;
  const uint64_t hi = (static_cast<uint64_t>(rank_hi) << 32) | (n - 1);
  const int bits =
      std::clamp(static_cast<int>(std::bit_width(n)) - 4, 1, kTopBits);
  const int shift =
      std::max(static_cast<int>(std::bit_width(hi - lo)) - bits, 0);
  const size_t buckets = static_cast<size_t>((hi - lo) >> shift) + 1;
  const auto bucket = [&](uint32_t id) {
    return static_cast<size_t>((Key(probs, id) - lo) >> shift);
  };
  uint32_t count[size_t{1} << kTopBits] = {};
  double mass[size_t{1} << kTopBits] = {};
  for (uint32_t id = 0; id < n; ++id) {
    const size_t b = bucket(id);
    ++count[b];
    mass[b] += probs[id];
  }
  // Bucket b's keys are below lo + (b + 1) << shift, so the first `exact`
  // buckets lie wholly below kExactKeyEnd.
  const uint64_t exact = kExactKeyEnd > lo ? (kExactKeyEnd - lo) >> shift : 0;
  size_t first = 0;
  for (; first < buckets && first < exact; ++first) {
    if (cut->keep + count[first] >= cut->limit ||
        (cut->use_top_p && cut->mass + mass[first] >= cut->top_p)) {
      break;
    }
    cut->keep += count[first];
    cut->mass += mass[first];
  }
  const size_t end = first < exact ? first + 1 : buckets;
  // count[b] becomes bucket b's offset in `ids`, then its end.
  uint32_t total = 0;
  for (size_t b = first; b < end; ++b) {
    const uint32_t m = count[b];
    count[b] = total;
    total += m;
  }
  uint32_t* ids = t_order.Fit(total);
  for (uint32_t id = 0; id < n; ++id) {
    const size_t b = bucket(id);
    if (b - first < end - first) ids[count[b]++] = id;  // first <= b < end
  }
  uint32_t begin = 0;
  for (size_t b = first; b < end; begin = count[b++]) {
    if (SortAndTake(probs, ids + begin, count[b] - begin, take)) break;
  }
  return last;
}

// First index of the maximum logit: the one-hot argmax of Eq. 8's
// T -> 0 limit.
int64_t Argmax(const float* logits, int64_t vocab) {
  int64_t best = 0;
  for (int64_t i = 1; i < vocab; ++i) {
    if (logits[i] > logits[best]) best = i;
  }
  return best;
}

// Writes the distribution of `options` (temperature > 0) over
// logits[0, vocab) to probs[0, vocab): the softmax at temperature, then,
// if set, top-k and top-p truncation over the sampling order, renormalized.
// The kept mass is summed in sampling order, or exactly, so it has the bits
// of a sum in the order of any sort by probability: equal probabilities
// may trade places without changing one.
void WriteDistribution(const float* logits, int64_t vocab,
                       const SamplerOptions& options, float* probs) {
  const float inv_t = 1.0f / options.temperature;
  float maxv = logits[0];
  for (int64_t i = 1; i < vocab; ++i) maxv = std::max(maxv, logits[i]);
  double sum = 0.0;
  for (int64_t i = 0; i < vocab; ++i) {
    probs[i] = std::exp((logits[i] - maxv) * inv_t);
    sum += probs[i];
  }
  for (int64_t i = 0; i < vocab; ++i) {
    probs[i] = static_cast<float>(probs[i] / sum);
  }

  const bool use_top_k = options.top_k > 0 && options.top_k < vocab;
  const bool use_top_p = options.top_p > 0.0f && options.top_p < 1.0f;
  if (!use_top_k && !use_top_p) return;

  Cut cut{use_top_k ? options.top_k : vocab, use_top_p, options.top_p};
  const uint64_t last = OrderAndCut(probs, static_cast<size_t>(vocab), &cut);
  LLM_CHECK_GT(cut.mass, 0.0);
  // Drops every id whose key is above `last`, without a branch to mispredict.
  const uint32_t last_rank = static_cast<uint32_t>(last >> 32);
  const uint32_t last_id = static_cast<uint32_t>(last);
  for (uint32_t id = 0; id < vocab; ++id) {
    const uint32_t rank = Rank(probs[id]);
    const bool drop =
        (rank > last_rank) | ((rank == last_rank) & (id > last_id));
    probs[id] = drop ? 0.0f : probs[id];
  }
  for (int64_t i = 0; i < vocab; ++i) {
    probs[i] = static_cast<float>(probs[i] / cut.mass);
  }
}

void CheckVocab(int64_t vocab) {
  LLM_CHECK_GT(vocab, 0);
  LLM_CHECK_LE(vocab, int64_t{std::numeric_limits<uint32_t>::max()});
}

}  // namespace

std::vector<float> DistributionFromLogits(const float* logits, int64_t vocab,
                                          const SamplerOptions& options) {
  CheckVocab(vocab);
  std::vector<float> probs(static_cast<size_t>(vocab), 0.0f);
  if (options.temperature <= 0.0f) {
    probs[static_cast<size_t>(Argmax(logits, vocab))] = 1.0f;
  } else {
    WriteDistribution(logits, vocab, options, probs.data());
  }
  return probs;
}

int64_t SampleFromLogits(const float* logits, int64_t vocab,
                         const SamplerOptions& options, util::Rng* rng) {
  CheckVocab(vocab);
  if (options.temperature <= 0.0f) return Argmax(logits, vocab);
  float* probs = t_probs.Fit(vocab);
  WriteDistribution(logits, vocab, options, probs);
  LLM_CHECK(rng != nullptr);
  return static_cast<int64_t>(
      rng->Categorical(probs, static_cast<size_t>(vocab)));
}

std::vector<int64_t> Generate(const nn::GPTModel& model,
                              const std::vector<int64_t>& prefix,
                              const GenerateOptions& options,
                              util::Rng* rng) {
  LLM_CHECK(!prefix.empty());
  const int64_t max_len = model.config().max_seq_len;
  const int64_t vocab = model.config().vocab_size;
  std::vector<int64_t> sequence = prefix;
  std::vector<int64_t> generated;
  for (int64_t step = 0; step < options.max_new_tokens; ++step) {
    // Window: the last max_len tokens.
    const int64_t T =
        std::min<int64_t>(max_len, static_cast<int64_t>(sequence.size()));
    std::vector<int64_t> window(sequence.end() - T, sequence.end());
    core::Variable logits = model.ForwardLogits(window, 1, T);
    const float* last_row = logits.value().data() + (T - 1) * vocab;
    const int64_t next =
        SampleFromLogits(last_row, vocab, options.sampler, rng);
    sequence.push_back(next);
    generated.push_back(next);
    if (next == options.stop_token) break;
  }
  return generated;
}

std::vector<int64_t> GenerateCached(const nn::GPTModel& model,
                                    const std::vector<int64_t>& prefix,
                                    const GenerateOptions& options,
                                    util::Rng* rng) {
  nn::GptInferenceSession session(&model);
  return GenerateWithSession(&session, prefix, options, rng);
}

std::vector<int64_t> GenerateWithSession(nn::GptInferenceSession* session,
                                         const std::vector<int64_t>& prefix,
                                         const GenerateOptions& options,
                                         util::Rng* rng) {
  LLM_CHECK(session != nullptr);
  LLM_CHECK(!prefix.empty());
  session->Reset();
  const nn::GPTModel& model = *session->model();
  const int64_t max_len = model.config().max_seq_len;
  const int64_t vocab = model.config().vocab_size;
  const std::vector<float>* logits = nullptr;
  for (int64_t t : prefix) logits = &session->Append(t);
  std::vector<int64_t> out;
  if (session->position() >= max_len) return out;
  for (int64_t i = 0; i < options.max_new_tokens; ++i) {
    const int64_t next =
        SampleFromLogits(logits->data(), vocab, options.sampler, rng);
    out.push_back(next);
    // Feed `next` only when a later step samples from its logits: not
    // after a stop, the last allowed token, or the window's last slot.
    if (next == options.stop_token || i + 1 == options.max_new_tokens ||
        session->position() + 1 >= max_len) {
      break;
    }
    logits = &session->Append(next);
  }
  return out;
}

}  // namespace llm::sample
