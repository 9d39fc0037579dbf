#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 1-based nearest rank of percentile p over n samples.
std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

std::optional<double> percentile(std::vector<double> values, double p) {
  if (values.empty() || p <= 0.0 || p > 1.0) return std::nullopt;
  const std::size_t rank = nearest_rank(values.size(), p);
  if (values.size() - rank < kMinBeyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

std::size_t samples_for(double p) {
  std::size_t n = kMinBeyond + 1;
  while (n - nearest_rank(n, p) < kMinBeyond) ++n;
  return n;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool backlog_growing(std::vector<LagSample> samples) {
  if (samples.size() < 8) return false;
  std::sort(samples.begin(), samples.end(),
            [](const LagSample& a, const LagSample& b) { return a.due_s < b.due_s; });
  const std::size_t q = samples.size() / 4;
  std::vector<double> first, last;
  for (std::size_t i = 0; i < q; ++i) {
    first.push_back(samples[i].lag_ms);
    last.push_back(samples[samples.size() - q + i].lag_ms);
  }
  const double head = median(first);
  const double tail = median(last);
  return tail > head + std::max(2.0, 0.5 * head);
}

std::vector<double> chunk_rates(const std::vector<double>& done_s, std::size_t chunk) {
  std::vector<double> rates;
  for (std::size_t i = 0; chunk > 0 && i + chunk < done_s.size(); i += chunk) {
    const double dt = done_s[i + chunk] - done_s[i];
    if (dt > 0.0) rates.push_back(static_cast<double>(chunk) / dt);
  }
  return rates;
}

double rung_rate(double base, double step, int i) {
  return base * std::pow(step, static_cast<double>(i));
}

int highest_passing_rung(int max_rung, const std::function<bool(int)>& passes) {
  int lo = -1;            // highest rung known to pass (-1: none yet)
  int hi = max_rung + 1;  // lowest rung known to fail (or past the top)
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (passes(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace perfbench
