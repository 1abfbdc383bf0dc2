// Tests for the row kernels (core/kernels.h) that the autograd ops and the
// cached decode step share: the tiled GEMM and the lane-group X W^T against
// serial loops at shapes with remainders in every dimension, the LayerNorm
// and softmax rows in place and in their serial forms, and the attention
// row at both strides its callers use.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/kernels.h"
#include "util/rng.h"

namespace llm::core::kernels {
namespace {

std::vector<float> Normals(int64_t n, util::Rng* rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& f : v) f = static_cast<float>(rng->Normal(0.0, 1.0));
  return v;
}

// Equal bit for bit: tells +0 from -0.
bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// The GEMM contract as a plain loop: every output accumulates from +0,
// ascending over the input index, with no term skipped, and the bias comes
// last.
std::vector<float> SerialGemm(const std::vector<float>& x,
                              const std::vector<float>& w, const float* bias,
                              int64_t rows, int64_t in, int64_t out) {
  std::vector<float> y(static_cast<size_t>(rows * out));
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t o = 0; o < out; ++o) {
      float acc = 0.0f;
      for (int64_t i = 0; i < in; ++i) {
        acc += x[static_cast<size_t>(r * in + i)] *
               w[static_cast<size_t>(i * out + o)];
      }
      if (bias != nullptr) acc += bias[o];
      y[static_cast<size_t>(r * out + o)] = acc;
    }
  }
  return y;
}

// Inputs whose zeros exercise both skips: every fourth column is zero in
// all rows (a tile skips it), the next one is zero in one row only (a tile
// keeps it, a lone row skips it), odd rows write -0 for both, and row 2
// is -0 throughout.
std::vector<float> InputsWithZeros(int64_t rows, int64_t in, util::Rng* rng) {
  std::vector<float> x = Normals(rows * in, rng);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t i = 0; i < in; ++i) {
      const float zero = r % 2 == 1 ? -0.0f : 0.0f;
      float& v = x[static_cast<size_t>(r * in + i)];
      if (i % 4 == 1 || (i % 4 == 2 && r == (i / 4) % rows)) v = zero;
      if (r == 2) v = -0.0f;
    }
  }
  return x;
}

TEST(GemmKernel, EqualsSerialLoopBitForBit) {
  util::Rng rng(5);
  int shapes = 0;
  for (int64_t rows : {1, 3, 4, 5, 9}) {
    for (int64_t out : {1, 7, 8, 9, 17}) {
      for (int64_t in : {1, 5, 24}) {
        const std::vector<float> x = InputsWithZeros(rows, in, &rng);
        const std::vector<float> w = Normals(in * out, &rng);
        const std::vector<float> bias = Normals(out, &rng);
        for (const float* b : {static_cast<const float*>(nullptr),
                               bias.data()}) {
          const std::vector<float> want = SerialGemm(x, w, b, rows, in, out);
          std::vector<float> got(want.size(), 1.0f);  // every output written
          Gemm(x.data(), w.data(), b, got.data(), rows, in, out);
          EXPECT_TRUE(SameBits(got, want))
              << rows << "x" << in << " times " << in << "x" << out
              << (b != nullptr ? " with bias" : " without bias");
          ++shapes;
        }
      }
    }
  }
  EXPECT_EQ(shapes, 150);
}

// X W^T's contract as a plain loop: every output is a fresh chain from +0,
// ascending over the input index, with no term skipped.
std::vector<float> SerialGemmBt(const std::vector<float>& x,
                                const std::vector<float>& w, int64_t rows,
                                int64_t in, int64_t out) {
  std::vector<float> y(static_cast<size_t>(rows * out));
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t o = 0; o < out; ++o) {
      float acc = 0.0f;
      for (int64_t i = 0; i < in; ++i) {
        acc += x[static_cast<size_t>(r * in + i)] *
               w[static_cast<size_t>(o * in + i)];
      }
      y[static_cast<size_t>(r * out + o)] = acc;
    }
  }
  return y;
}

// Rows 1 and 9 and 17 end on a lone row, 2 and 7 are one partial group, 8
// and 16 whole groups. Each output row lands in its own slot of a pool, the
// rows in reverse order with guard floats around every slot, as the decode
// step writes each lane's logits: the kernel writes every output of each
// row and nothing between the rows.
TEST(GemmBtKernel, EqualsSerialLoopThroughScatteredRows) {
  util::Rng rng(9);
  constexpr int64_t kGuard = 3;
  const std::vector<float> guards(kGuard,
                                  std::numeric_limits<float>::quiet_NaN());
  int shapes = 0;
  for (int64_t rows : {1, 2, 7, 8, 9, 16, 17}) {
    for (int64_t in : {1, 5, 24}) {
      for (int64_t out : {1, 7, 33}) {
        const std::vector<float> x = InputsWithZeros(rows, in, &rng);
        const std::vector<float> w = Normals(out * in, &rng);
        const std::vector<float> want = SerialGemmBt(x, w, rows, in, out);
        const int64_t slot = kGuard + out;
        std::vector<float> pool(static_cast<size_t>(rows * slot + kGuard),
                                guards[0]);
        std::vector<float*> y(static_cast<size_t>(rows));
        for (int64_t r = 0; r < rows; ++r) {
          y[static_cast<size_t>(r)] = pool.data() + (rows - 1 - r) * slot +
                                      kGuard;
        }
        GemmBt(x.data(), w.data(), y.data(), rows, in, out);
        std::vector<float> got;
        for (float* row : y) got.insert(got.end(), row, row + out);
        EXPECT_TRUE(SameBits(got, want))
            << rows << "x" << in << " times (" << out << "x" << in << ")^T";
        for (int64_t r = 0; r <= rows; ++r) {
          EXPECT_EQ(std::memcmp(pool.data() + r * slot, guards.data(),
                                kGuard * sizeof(float)),
                    0)
              << "guard before slot " << r << " of " << rows;
        }
        ++shapes;
      }
    }
  }
  EXPECT_EQ(shapes, 63);
}

TEST(LayerNormKernel, InPlaceEqualsOutOfPlaceInTheTrainingAssociation) {
  util::Rng rng(6);
  for (int64_t c : {1, 7, 24, 37}) {
    const std::vector<float> x = Normals(c, &rng);
    const std::vector<float> gamma = Normals(c, &rng);
    const std::vector<float> beta = Normals(c, &rng);
    std::vector<float> out(static_cast<size_t>(c));
    const RowMoments m =
        LayerNormRow(x.data(), gamma.data(), beta.data(), c, 1e-5f, out.data());
    std::vector<float> in_place = x;
    const RowMoments m2 = LayerNormRow(in_place.data(), gamma.data(),
                                       beta.data(), c, 1e-5f, in_place.data());
    EXPECT_TRUE(SameBits(out, in_place)) << "c = " << c;
    EXPECT_EQ(m.mean, m2.mean);
    EXPECT_EQ(m.rstd, m2.rstd);
    // gamma * ((x - mean) * rstd) + beta, not (gamma * (x - mean)) * rstd.
    for (int64_t i = 0; i < c; ++i) {
      const auto k = static_cast<size_t>(i);
      const float want = gamma[k] * ((x[k] - m.mean) * m.rstd) + beta[k];
      EXPECT_EQ(std::memcmp(&out[k], &want, sizeof(float)), 0)
          << "c = " << c << " element " << i;
    }
  }
}

// The softmax row that the Softmax op, the cross-entropy and the attention
// row share: in place equals out of place, and both equal the serial form.
TEST(SoftmaxKernel, InPlaceEqualsOutOfPlaceAndSerialForm) {
  util::Rng rng(8);
  for (int64_t n : {1, 7, 24}) {
    const std::vector<float> x = Normals(n, &rng);
    std::vector<float> out(x.size());
    SoftmaxRow(x.data(), out.data(), n);
    std::vector<float> in_place = x;
    SoftmaxRow(in_place.data(), in_place.data(), n);
    EXPECT_TRUE(SameBits(out, in_place)) << "n = " << n;
    const float maxv = *std::max_element(x.begin(), x.end());
    std::vector<float> want(x.size());
    float sum = 0.0f;
    for (size_t i = 0; i < x.size(); ++i) {
      want[i] = std::exp(x[i] - maxv);
      sum += want[i];
    }
    const float inv = 1.0f / sum;
    for (float& v : want) v *= inv;
    EXPECT_TRUE(SameBits(out, want)) << "n = " << n;
  }
}

// The training op reads keys and values from fused [T, 3C] QKV rows, the
// decode step from [T, C] cache slabs: the same rows at either stride give
// the same bits.
TEST(AttentionKernel, FusedRowsEqualCacheSlabs) {
  util::Rng rng(7);
  const int64_t T = 9, C = 12, H = 3, hd = C / H;
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(hd));
  const std::vector<float> qkv = Normals(T * 3 * C, &rng);
  std::vector<float> keys(static_cast<size_t>(T * C));
  std::vector<float> values(keys.size());
  for (int64_t t = 0; t < T; ++t) {
    for (int64_t c = 0; c < C; ++c) {
      keys[static_cast<size_t>(t * C + c)] =
          qkv[static_cast<size_t>(t * 3 * C + C + c)];
      values[static_cast<size_t>(t * C + c)] =
          qkv[static_cast<size_t>(t * 3 * C + 2 * C + c)];
    }
  }
  for (int64_t window : {0, 3}) {
    for (int64_t t = 0; t < T; ++t) {
      const int64_t lo = window > 0 ? std::max<int64_t>(0, t - window + 1) : 0;
      for (int64_t h = 0; h < H; ++h) {
        std::vector<float> p_fused(static_cast<size_t>(T), 0.0f);
        std::vector<float> p_slab(p_fused.size(), 0.0f);
        std::vector<float> o_fused(static_cast<size_t>(hd), 1.0f);
        std::vector<float> o_slab(o_fused.size(), 2.0f);
        const float* q = qkv.data() + t * 3 * C + h * hd;
        CausalAttentionRow(q, qkv.data() + C + h * hd,
                           qkv.data() + 2 * C + h * hd, 3 * C, lo, t, hd,
                           inv_sqrt, p_fused.data(), o_fused.data());
        CausalAttentionRow(q, keys.data() + h * hd, values.data() + h * hd, C,
                           lo, t, hd, inv_sqrt, p_slab.data(), o_slab.data());
        EXPECT_TRUE(SameBits(p_fused, p_slab));
        EXPECT_TRUE(SameBits(o_fused, o_slab));
        for (int64_t j = 0; j < T; ++j) {
          if (j < lo || j > t) {
            EXPECT_EQ(p_fused[static_cast<size_t>(j)], 0.0f)
                << "row " << j << " outside [" << lo << ", " << t << "]";
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace llm::core::kernels
