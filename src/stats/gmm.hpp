// Gaussian Mixture Model with full-covariance EM.
//
// The paper (§5.2) synthesizes "realistic values for hardware performance
// counters (LLC misses/sec, instructions/sec) for each job using a Gaussian
// Mixture Model trained on data collected on IC". This is that model: fit on
// counter vectors, then sample new counter vectors for simulated jobs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace ga::stats {

/// One mixture component: weight, mean vector, and full covariance with its
/// cached Cholesky factor (for density evaluation and sampling).
struct GmmComponent {
    double weight = 0.0;
    std::vector<double> mean;        ///< dim
    std::vector<double> covariance;  ///< dim*dim row-major
    std::vector<double> chol;        ///< lower-triangular factor of covariance
    double log_norm = 0.0;           ///< -0.5*(dim*log(2pi) + log|Sigma|)
};

/// Fitting configuration.
struct GmmOptions {
    std::size_t n_components = 3;
    std::size_t max_iterations = 200;
    double tolerance = 1e-7;      ///< stop when mean log-likelihood improves less
    double min_variance = 1e-9;   ///< diagonal floor to keep covariances SPD
    std::uint64_t seed = 42;      ///< k-means++-style initialization seed
    /// EM team size (0 = hardware concurrency). The fit is bit-identical at
    /// every count: each sum keeps its serial row order.
    std::size_t threads = 1;
};

/// A fitted mixture over `dim`-dimensional observations.
class Gmm {
public:
    /// Fits by EM. `rows` is row-major with `dim` columns; requires at least
    /// `options.n_components` rows. With `options.threads` > 1, each E step
    /// splits the rows and each M step the components over a thread team.
    static Gmm fit(std::span<const double> rows, std::size_t dim,
                   const GmmOptions& options);

    /// Constructs directly from components (used by tests and serialization).
    Gmm(std::size_t dim, std::vector<GmmComponent> components);

    /// Log density of one observation.
    [[nodiscard]] double log_pdf(std::span<const double> x) const;

    /// Braced-list convenience: gmm.log_pdf({0.0, 1.0}).
    [[nodiscard]] double log_pdf(std::initializer_list<double> x) const {
        return log_pdf(std::span<const double>(x.begin(), x.size()));
    }

    /// Draws one observation.
    [[nodiscard]] std::vector<double> sample(ga::util::Rng& rng) const;

    /// Per-iteration mean log-likelihood trace from the fit (empty when the
    /// model was constructed directly).
    [[nodiscard]] const std::vector<double>& training_trace() const noexcept {
        return trace_;
    }

    [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
    [[nodiscard]] const std::vector<GmmComponent>& components() const noexcept {
        return components_;
    }

private:
    static void finalize_component(GmmComponent& c, std::size_t dim,
                                   double min_variance);

    std::size_t dim_;
    std::vector<GmmComponent> components_;
    std::vector<double> trace_;
};

}  // namespace ga::stats
