#ifndef TIPBENCH_STATS_H_
#define TIPBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace tipbench {

/// Samples lying strictly above the nearest-rank `q` percentile of `n`
/// samples: n - ceil(q * n).
size_t SamplesBeyond(size_t n, double q);

/// The nearest-rank `q` percentile (0 < q < 1) of `samples`, or nullopt
/// when fewer than ten samples lie beyond it: a tail figure resting on
/// a handful of samples does not repeat from run to run.
std::optional<double> Percentile(std::vector<double> samples, double q);

/// The median (mean of the two middle values for an even count); 0 for
/// an empty input.
double Median(std::vector<double> samples);

/// Per-window figures of a timed loop: samples are split by completion
/// time into `window_s`-second windows (a trailing partial window is
/// dropped), and each figure is the median over the windows, so a few
/// seconds in which the host runs slow move it less than they move a
/// whole-run mean or percentile.
struct Windowed {
  size_t windows = 0;
  double rate_per_s = 0;  // median of samples completed per second
  double p50 = 0;         // median of the windows' medians
  std::optional<double> p90;  // median of the windows' p90s, when every
                              // window has ten samples beyond its p90
};
Windowed ByWindow(const std::vector<double>& values,
                  const std::vector<double>& done_s, double window_s);

}  // namespace tipbench

#endif  // TIPBENCH_STATS_H_
