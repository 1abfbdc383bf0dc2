#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

namespace llm::bench_e2e {

double NearestRank(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  // The epsilon keeps float error in q * n (0.9 * 160) off the next rank.
  const size_t rank = static_cast<size_t>(
      std::clamp(std::ceil(q * n - 1e-9), 1.0, n));
  return samples[rank - 1];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

int64_t TokensInWindow(const RequestTimes& times, const Window& window) {
  return std::count_if(times.tokens.begin(), times.tokens.end(),
                       [&](Clock::time_point t) { return window.Contains(t); });
}

double ShareInWindow(const RequestTimes& times, const Window& window) {
  if (times.tokens.empty()) return 0.0;
  const Clock::time_point begin = times.submit_begin;
  const Clock::time_point end = times.tokens.back();
  const double inside =
      MsBetween(std::max(begin, window.begin), std::min(end, window.end));
  return inside > 0.0 ? inside / MsBetween(begin, end) : 0.0;
}

double MedianCompletionRate(const std::vector<RequestTimes>& requests,
                            const Window& window, double piece_s) {
  const auto piece = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(piece_s));
  std::vector<double> rates;
  for (Window w{window.begin, window.begin + piece}; w.end <= window.end;
       w = {w.end, w.end + piece}) {
    double completed = 0.0;
    for (const RequestTimes& times : requests) {
      completed += ShareInWindow(times, w);
    }
    rates.push_back(completed / w.seconds());
  }
  return NearestRank(rates, 0.5);
}

double ScaleTime(double value, double reference_ms, double nominal_ms) {
  return value * nominal_ms / reference_ms;
}

double TtftMs(const RequestTimes& times) {
  return MsBetween(times.due, times.tokens.front());
}

double GenLagMs(const RequestTimes& times) {
  return MsBetween(times.due, times.submit_begin);
}

void AppendInterTokenGapsMs(const RequestTimes& times,
                            std::vector<double>* out) {
  for (size_t i = 1; i < times.tokens.size(); ++i) {
    out->push_back(MsBetween(times.tokens[i - 1], times.tokens[i]));
  }
}

double SharedPrefixShare(const std::vector<std::vector<int64_t>>& prompts) {
  // A token trie of every prompt seen so far: walking a new prompt down it
  // finds its longest common prefix with any earlier prompt.
  std::vector<std::map<int64_t, size_t>> children(1);
  int64_t shared = 0;
  int64_t total = 0;
  for (const std::vector<int64_t>& prompt : prompts) {
    size_t node = 0;
    bool matching = true;
    for (int64_t token : prompt) {
      auto it = children[node].find(token);
      if (matching && it != children[node].end()) {
        ++shared;
        node = it->second;
        continue;
      }
      matching = false;
      children.emplace_back();
      children[node][token] = children.size() - 1;
      node = children.size() - 1;
    }
    total += static_cast<int64_t>(prompt.size());
  }
  return total > 0 ? static_cast<double>(shared) / static_cast<double>(total)
                   : 0.0;
}

double SelfTimeMs(const std::vector<Span>& spans, size_t index) {
  const Span& span = spans[index];
  std::vector<std::pair<double, double>> covered;
  for (const Span& child : spans) {
    if (child.parent != static_cast<int>(index)) continue;
    const double begin = std::max(child.start_ms, span.start_ms);
    const double end = std::min(child.end_ms, span.end_ms);
    if (end > begin) covered.emplace_back(begin, end);
  }
  std::sort(covered.begin(), covered.end());
  double self = span.end_ms - span.start_ms;
  double reach = span.start_ms;  // end of the union covered so far
  for (const auto& [begin, end] : covered) {
    if (end <= reach) continue;
    self -= end - std::max(begin, reach);
    reach = end;
  }
  return self;
}

}  // namespace llm::bench_e2e
