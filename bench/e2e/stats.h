// Metric math of the end-to-end serving benchmark (bench_e2e.cc), kept
// apart from the load generator so each rule can be tested on hand-built
// inputs (stats_test.cc).
//
// Every percentile here is nearest-rank over raw client-side samples. The
// server's own ServerStats / obs::Histogram percentiles snap to ~19% wide
// buckets and must never back a benchmark claim.
#ifndef TFMR_BENCH_E2E_STATS_H_
#define TFMR_BENCH_E2E_STATS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace llm::bench_e2e {

using Clock = std::chrono::steady_clock;

/// Nearest-rank q-quantile: the sample at 1-based rank ceil(q * n) of the
/// sorted samples (rank 1 for q = 0). NaN when `samples` is empty.
double NearestRank(std::vector<double> samples, double q);

/// Arithmetic mean; NaN when empty.
double Mean(const std::vector<double>& samples);

/// Milliseconds from `from` to `to` (negative when `to` is earlier).
double MsBetween(Clock::time_point from, Clock::time_point to);

/// Half-open measurement window [begin, end).
struct Window {
  Clock::time_point begin;
  Clock::time_point end;

  bool Contains(Clock::time_point t) const { return t >= begin && t < end; }
  double seconds() const {
    return std::chrono::duration<double>(end - begin).count();
  }
};

/// Client-side timeline of one request.
struct RequestTimes {
  /// When the request was due to be sent: its scheduled arrival (open
  /// loop) or the moment the request it replaces finished (closed loop).
  Clock::time_point due;
  Clock::time_point submit_begin;  // Submit called
  Clock::time_point submit_end;    // Submit returned
  /// Arrival of each streamed token, as seen by the on_token callback.
  std::vector<Clock::time_point> tokens;
};

/// Streamed tokens whose arrival falls inside `window`.
int64_t TokensInWindow(const RequestTimes& times, const Window& window);

/// The share of a request's time in the system, from Submit to its last
/// streamed token, that lies inside `window`; 0 when it streamed none.
/// Summed over a closed loop's requests and divided by the window's length,
/// this is the loop's completion rate, without the error of up to one
/// request per client that counting whole completions makes at each edge.
double ShareInWindow(const RequestTimes& times, const Window& window);

/// A closed loop's completion rate per second, robust to a host that
/// stalls now and then: `window` is cut into consecutive pieces of
/// `piece_s` seconds (a shorter remainder is dropped), the rate in each is
/// the ShareInWindow sum of `requests` over its length, and the median of
/// those rates is returned. NaN when no piece fits.
double MedianCompletionRate(const std::vector<RequestTimes>& requests,
                            const Window& window, double piece_s);

/// Host-speed scaling (host_speed.h): a time measured while the reference
/// read `reference_ms`, as it would read on a host where the reference
/// reads `nominal_ms`. A slower host reads a longer reference and a longer
/// time, so the two cancel.
double ScaleTime(double value, double reference_ms, double nominal_ms);

/// Time to first token, measured from the due time, so a late generator
/// or a slow Submit counts against the request. Requires a streamed token.
double TtftMs(const RequestTimes& times);

/// How late the client called Submit relative to the due time.
double GenLagMs(const RequestTimes& times);

/// Appends every gap between consecutive streamed tokens to `out`.
void AppendInterTokenGapsMs(const RequestTimes& times, std::vector<double>* out);

/// Share of prompt tokens that lie in a prefix the prompt shares with some
/// earlier prompt of the list: for each prompt, the longest common prefix
/// with any earlier one, summed and divided by the total prompt tokens.
/// This is the share a perfect prefix cache could skip. 0 for no tokens.
double SharedPrefixShare(const std::vector<std::vector<int64_t>>& prompts);

/// One span of the --trace-out dump. Times are ms from the run's start.
struct Span {
  std::string name;
  int parent = -1;  // index into the same span list; -1 for the root
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// A span's self time: its duration minus the part of it that its child
/// spans cover (overlapping children are counted once).
double SelfTimeMs(const std::vector<Span>& spans, size_t index);

}  // namespace llm::bench_e2e

#endif  // TFMR_BENCH_E2E_STATS_H_
