// What the stage harnesses that write a BENCH_*.json record share: a
// clock reading, quartiles over rounds, and the git SHA of the tree they
// were built from.
#ifndef TFMR_BENCH_BENCH_RECORD_H_
#define TFMR_BENCH_BENCH_RECORD_H_

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace llm::bench {

inline double NowNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

struct Quartiles {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
};

// Linear interpolation between order statistics of the rounds that ran
// (a NaN marks one that did not).
inline Quartiles Summarize(std::vector<double> v) {
  Quartiles q;
  std::erase_if(v, [](double x) { return std::isnan(x); });
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const auto at = [&](double p) {
    const double pos = p * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  q.q1 = at(0.25);
  q.median = at(0.5);
  q.q3 = at(0.75);
  return q;
}

// `git describe --always --dirty` of `source_dir`, or "unknown".
inline std::string GitSha(const char* source_dir) {
  const std::string cmd = std::string("git -C '") + source_dir +
                          "' describe --always --dirty --abbrev=40 2>/dev/null";
  std::string sha;
  if (FILE* p = popen(cmd.c_str(), "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), p) != nullptr) sha += buf;
    pclose(p);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == ' ')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

// Prints "key":{"median":M,"q1":Q1,"q3":Q3}.
inline void PrintQuartiles(FILE* out, const char* key, const Quartiles& q) {
  std::fprintf(out, "\"%s\":{\"median\":%.4f,\"q1\":%.4f,\"q3\":%.4f}", key,
               q.median, q.q1, q.q3);
}

}  // namespace llm::bench

#endif  // TFMR_BENCH_BENCH_RECORD_H_
