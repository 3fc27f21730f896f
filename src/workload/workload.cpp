#include "workload/workload.hpp"

#include <optional>

#include "machine/catalog.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace ga::workload {

std::vector<Workload::PerMachine> Workload::extrapolate(const TraceJob& job) const {
    GA_REQUIRE(predictor != nullptr, "workload: predictor not initialized");
    const auto scaling = predictor->predict(job.counters);
    std::vector<PerMachine> out(scaling.size());
    for (std::size_t m = 0; m < scaling.size(); ++m) {
        out[m].runtime_s = job.runtime_ic_s * scaling[m].runtime_factor;
        out[m].power_w = job.power_ic_w * scaling[m].power_factor;
    }
    return out;
}

Workload build_workload(const TraceOptions& options, std::size_t threads) {
    const std::size_t budget =
        threads == 0 ? ga::util::default_thread_count() : threads;
    const auto fit = [&](std::size_t fit_threads) {
        return fit_counter_gmm(/*training_rows=*/4000, options.seed ^ 0x9E5u,
                               fit_threads);
    };
    Workload w;
    std::optional<ga::stats::Gmm> gmm;
    if (budget < 2) {
        w.jobs = generate_trace(options);
        gmm.emplace(fit(1));
    } else {
        // Member 0 (the caller) generates the trace; member 1 leads the fit
        // team. When both throw, run_team rethrows member 0's error: the
        // trace's, as when the two ran in sequence.
        ga::util::run_team(2, [&](std::size_t member, ga::util::Team&) {
            if (member == 0) {
                w.jobs = generate_trace(options);
            } else {
                gmm.emplace(fit(budget - 1));
            }
        });
    }
    synthesize_counters(w.jobs, *gmm, options.seed ^ 0x51Du);
    w.predictor = std::make_shared<CrossPlatformPredictor>(
        ga::machine::simulation_machines());
    return w;
}

}  // namespace ga::workload
