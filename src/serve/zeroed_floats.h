// A fixed-size float buffer that reads all +0.0 without being written.
//
// glibc's std::calloc serves a block as large as the KV slab or the
// scheduler's logits from a fresh anonymous mapping and skips the memset,
// so construction writes nothing and the kernel zeroes each page when its
// first use touches it. A std::vector<float> of the same size writes every
// float, faulting in every page, before the server can start.
#ifndef TFMR_SERVE_ZEROED_FLOATS_H_
#define TFMR_SERVE_ZEROED_FLOATS_H_

#include <cstddef>
#include <cstdlib>
#include <memory>

#include "util/check.h"

namespace llm::serve {

class ZeroedFloats {
 public:
  ZeroedFloats() = default;
  explicit ZeroedFloats(size_t n)
      : data_(static_cast<float*>(std::calloc(n, sizeof(float)))), size_(n) {
    LLM_CHECK(data_ != nullptr || n == 0) << "cannot reserve " << n
                                          << " floats";
  }

  float* data() const { return data_.get(); }
  size_t size() const { return size_; }

 private:
  struct Free {
    void operator()(float* p) const { std::free(p); }
  };
  std::unique_ptr<float[], Free> data_;
  size_t size_ = 0;
};

}  // namespace llm::serve

#endif  // TFMR_SERVE_ZEROED_FLOATS_H_
