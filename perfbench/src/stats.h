// The benchmark's own arithmetic: order statistics under the
// "at least ten samples beyond" rule, the open-loop backlog test, the
// saturated completion rate and the capacity-ladder search.  Kept free of libpgti so
// tests/stats_test.cpp can check it in isolation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples a percentile must leave strictly above its rank before it
/// is reported (a p99 therefore needs at least 1000 samples).
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile (`p` in (0, 1]) of `values`; nullopt when
/// fewer than kMinBeyond samples lie beyond the rank.
std::optional<double> percentile(std::vector<double> values, double p);

/// Samples needed so percentile(p) is reported.
std::size_t samples_for(double p);

/// Median (the mean of the middle pair for even counts); 0 when empty.
double median(std::vector<double> values);

/// One completed open-loop request: when it was due (seconds since
/// the phase started) and how late it completed relative to that.
struct LagSample {
  double due_s = 0.0;
  double lag_ms = 0.0;
};

/// True when completion lag trends upward across a rung: the median lag
/// of the last quarter of requests (by due time) exceeds the first
/// quarter's by more than max(2 ms, 50%).  A stable system's lag is
/// stationary; an overloaded one's queue — and so its lag — grows
/// with every request it falls behind on.  Needs at least 8 samples.
bool backlog_growing(std::vector<LagSample> samples);

/// Completion rates (per second) over consecutive runs of `chunk`
/// completions, from completion times `done_s` (seconds, ascending):
/// run j gives chunk / (done_s[(j+1)*chunk] - done_s[j*chunk]).  Their
/// median, not count / elapsed, is the rate: one stall moves one
/// sample.  Empty when there is not one whole run.
std::vector<double> chunk_rates(const std::vector<double>& done_s, std::size_t chunk);

/// Rate of rung `i` on the geometric ladder base * step^i.
double rung_rate(double base, double step, int i);

/// Highest rung in [0, max_rung] whose probe passes, assuming passes()
/// is monotone (every rung below a passing rung passes); -1 when rung 0
/// fails.  Bisection, so about log2(max_rung) probes.
int highest_passing_rung(int max_rung, const std::function<bool(int)>& passes);

}  // namespace perfbench
