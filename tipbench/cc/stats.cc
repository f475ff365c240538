#include "stats.h"

#include <algorithm>
#include <cmath>

namespace tipbench {

size_t SamplesBeyond(size_t n, double q) {
  // The epsilon keeps 0.99 * 1000 from rounding up to rank 991.
  const double exact = q * static_cast<double>(n) - 1e-9;
  const size_t rank = static_cast<size_t>(std::ceil(exact));
  return n > rank ? n - rank : 0;
}

std::optional<double> Percentile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0 || SamplesBeyond(n, q) < 10) return std::nullopt;
  const size_t rank = n - SamplesBeyond(n, q);  // 1-based, >= 1
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  const size_t n = samples.size();
  if (n == 0) return 0;
  std::sort(samples.begin(), samples.end());
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

Windowed ByWindow(const std::vector<double>& values,
                  const std::vector<double>& done_s, double window_s) {
  Windowed w;
  if (values.empty() || window_s <= 0) return w;
  double end = 0;
  for (double t : done_s) end = std::max(end, t);
  w.windows = static_cast<size_t>(end / window_s);
  if (w.windows == 0) return w;
  std::vector<std::vector<double>> by(w.windows);
  for (size_t i = 0; i < values.size(); ++i) {
    const size_t k = static_cast<size_t>(done_s[i] / window_s);
    if (k < w.windows) by[k].push_back(values[i]);
  }
  std::vector<double> rates, p50s, p90s;
  for (const std::vector<double>& v : by) {
    rates.push_back(static_cast<double>(v.size()) / window_s);
    p50s.push_back(Median(v));
    if (std::optional<double> p = Percentile(v, 0.90)) p90s.push_back(*p);
  }
  w.rate_per_s = Median(rates);
  w.p50 = Median(p50s);
  if (p90s.size() == w.windows) w.p90 = Median(p90s);
  return w;
}

}  // namespace tipbench
