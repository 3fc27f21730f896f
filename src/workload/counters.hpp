// Hardware-counter synthesis (paper §5.2, stage one).
//
// "We generate realistic values for hardware performance counters (i.e.,
// LLC Misses/sec., Instructions/sec) for each job using a Gaussian Mixture
// Model trained on data collected on IC."
//
// We reproduce the pipeline: build a training matrix of counter vectors for
// the IC machine (derived from instrumented-kernel work profiles plus
// archetype spread), fit the ga_stats GMM on it, then sample one counter
// vector per trace job.
#pragma once

#include <vector>

#include "stats/gmm.hpp"
#include "workload/trace.hpp"

namespace ga::workload {

/// Builds the IC counter training matrix (row-major, 2 columns:
/// log GIPS, log LLC-misses/sec). Uses log-space because counter magnitudes
/// span orders of magnitude.
[[nodiscard]] std::vector<double> make_counter_training_data(std::size_t rows,
                                                             std::uint64_t seed);

/// Fits the counter GMM (paper: trained on IC data) on a team of `threads`
/// (0 = hardware concurrency); the fit is the same at every count.
[[nodiscard]] ga::stats::Gmm fit_counter_gmm(std::size_t training_rows = 4000,
                                             std::uint64_t seed = 7,
                                             std::size_t threads = 0);

/// Samples counters for every job in the trace, in place: one GMM draw per
/// distinct (user, app), on its first sight in job order.
void synthesize_counters(std::vector<TraceJob>& jobs, const ga::stats::Gmm& gmm,
                         std::uint64_t seed);

/// Converts one GMM sample (log-space) to JobCounters.
[[nodiscard]] JobCounters counters_from_sample(const std::vector<double>& sample);

}  // namespace ga::workload
