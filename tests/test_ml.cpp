// Tests for the ML substrates: the GMM (EM) and the KNN regressor used by
// the §5.2 workload pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "stats/gmm.hpp"
#include "stats/knn.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/counters.hpp"

namespace {

namespace st = ga::stats;

std::vector<double> two_cluster_data(std::size_t n_per, ga::util::Rng& rng) {
    std::vector<double> rows;
    for (std::size_t i = 0; i < n_per; ++i) {
        rows.push_back(rng.normal(-4.0, 0.6));
        rows.push_back(rng.normal(-4.0, 0.6));
    }
    for (std::size_t i = 0; i < n_per; ++i) {
        rows.push_back(rng.normal(4.0, 0.8));
        rows.push_back(rng.normal(4.0, 0.8));
    }
    return rows;
}

TEST(Gmm, RecoversTwoClusters) {
    ga::util::Rng rng(1);
    const auto data = two_cluster_data(600, rng);
    st::GmmOptions opt;
    opt.n_components = 2;
    const auto model = st::Gmm::fit(data, 2, opt);

    ASSERT_EQ(model.components().size(), 2u);
    std::vector<double> mean0 = model.components()[0].mean;
    std::vector<double> mean1 = model.components()[1].mean;
    if (mean0[0] > mean1[0]) std::swap(mean0, mean1);
    EXPECT_NEAR(mean0[0], -4.0, 0.3);
    EXPECT_NEAR(mean1[0], 4.0, 0.3);
    EXPECT_NEAR(model.components()[0].weight + model.components()[1].weight, 1.0,
                1e-9);
}

TEST(Gmm, LogLikelihoodMonotonicallyImproves) {
    ga::util::Rng rng(2);
    const auto data = two_cluster_data(300, rng);
    st::GmmOptions opt;
    opt.n_components = 2;
    const auto model = st::Gmm::fit(data, 2, opt);
    const auto& trace = model.training_trace();
    ASSERT_GE(trace.size(), 2u);
    for (std::size_t i = 1; i < trace.size(); ++i) {
        EXPECT_GE(trace[i], trace[i - 1] - 1e-8) << "EM step " << i;
    }
}

TEST(Gmm, DensityHigherAtClusterCenter) {
    ga::util::Rng rng(3);
    const auto data = two_cluster_data(400, rng);
    st::GmmOptions opt;
    opt.n_components = 2;
    const auto model = st::Gmm::fit(data, 2, opt);
    const std::vector<double> center = {-4.0, -4.0};
    const std::vector<double> nowhere = {0.0, 0.0};
    EXPECT_GT(model.log_pdf(center), model.log_pdf(nowhere));
}

TEST(Gmm, SamplesFollowMixture) {
    ga::util::Rng rng(4);
    const auto data = two_cluster_data(500, rng);
    st::GmmOptions opt;
    opt.n_components = 2;
    const auto model = st::Gmm::fit(data, 2, opt);
    ga::util::Rng srng(5);
    int low = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        if (model.sample(srng)[0] < 0.0) ++low;
    }
    EXPECT_NEAR(static_cast<double>(low) / n, 0.5, 0.06);
}

TEST(Gmm, SamplingIsDeterministicGivenRng) {
    ga::util::Rng rng(6);
    const auto data = two_cluster_data(200, rng);
    st::GmmOptions opt;
    opt.n_components = 2;
    const auto model = st::Gmm::fit(data, 2, opt);
    ga::util::Rng a(7);
    ga::util::Rng b(7);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(model.sample(a), model.sample(b));
    }
}

TEST(Gmm, RejectsBadInputs) {
    st::GmmOptions opt;
    opt.n_components = 5;
    const std::vector<double> tiny = {1.0, 2.0};  // one 2-d row
    EXPECT_THROW((void)st::Gmm::fit(tiny, 2, opt), ga::util::PreconditionError);
}

// Parameterized sweep: EM converges for a range of component counts.
class GmmComponentSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GmmComponentSweep, FitConvergesAndWeightsNormalize) {
    ga::util::Rng rng(8);
    const auto data = two_cluster_data(400, rng);
    st::GmmOptions opt;
    opt.n_components = GetParam();
    const auto model = st::Gmm::fit(data, 2, opt);
    double total_weight = 0.0;
    for (const auto& c : model.components()) {
        EXPECT_GE(c.weight, 0.0);
        total_weight += c.weight;
    }
    EXPECT_NEAR(total_weight, 1.0, 1e-9);
    EXPECT_TRUE(std::isfinite(model.log_pdf({0.0, 0.0})));
}

INSTANTIATE_TEST_SUITE_P(Components, GmmComponentSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u));

// ------------------------------------------------------- pinned counter fit
// The §5.2 counter GMM at the committed fig5 seed, fit_counter_gmm(4000,
// 2023 ^ 0x9E5), recorded as hexfloats from the one-thread EM. The fit
// runs all 120 iterations (it never reaches its tolerance), so any change
// to the arithmetic or its order moves these rows and every results golden.
struct PinnedComponent {
    double weight;
    double log_norm;
    std::array<double, 2> mean;
    std::array<double, 4> covariance;
    std::array<double, 4> chol;
};

constexpr std::array<PinnedComponent, 3> kPinnedCounterFit{{
    {0x1.09ff22effdbb8p-1, -0x1.3d88452456d88p-1,
     {0x1.cb49b58c5692ep+0, 0x1.d23af2bb18f92p+1},
     {0x1.656fd7893f996p-2, -0x1.85ae44b3fb17fp-5, -0x1.85ae44b3fb17fp-5, 0x1.0783714af2d9p-2},
     {0x1.2e7efb25bf995p-1, 0x0p+0, -0x1.49c8a31c45e0bp-4, 0x1.006ff589115ecp-1}},
    {0x1.0f78446efa83ap-2, -0x1.e4365951a5a5cp-2,
     {-0x1.6ba4183d13798p+0, 0x1.ad7c2584cf884p+1},
     {0x1.11e2836dc0427p-2, 0x1.68b03c03ed011p-5, 0x1.68b03c03ed011p-5, 0x1.011bf046c61aep-2},
     {0x1.08ca9ca3f71b4p-1, 0x0p+0, 0x1.5cb68a49ea43cp-4, 0x1.f9a5d6b2106bbp-2}},
    {0x1.b912eb62140a6p-3, -0x1.f653e6a5293dfp-1,
     {-0x1.a5c014dbf8733p-5, 0x1.002ad43489e9dp+2},
     {0x1.bb8561ab8adabp-1, 0x1.fb73554c4b23cp-3, 0x1.fb73554c4b23cp-3, 0x1.1d9f2dabd763bp-2},
     {0x1.dc883240fb5ffp-1, 0x0p+0, 0x1.109c20b896927p-2, 0x1.d3139d72268e2p-2}},
}};

constexpr std::array<double, 120> kPinnedCounterTrace{
    -0x1.827e8e21ca0e1p+1, -0x1.471a636611f9ep+1, -0x1.3e708fc2f0cabp+1, -0x1.3760557b33601p+1,
    -0x1.33bdc50202152p+1, -0x1.329fbfbd70dfep+1, -0x1.3251d5d3f21f2p+1, -0x1.3235060e172ecp+1,
    -0x1.3225828af7f14p+1, -0x1.321abba642718p+1, -0x1.32122184cb65ap+1, -0x1.320abf88c1111p+1,
    -0x1.32042840925edp+1, -0x1.31fe22993beb6p+1, -0x1.31f88cf06a0aap+1, -0x1.31f351ab6e1d2p+1,
    -0x1.31ee62291a2b3p+1, -0x1.31e9b43c808a3p+1, -0x1.31e540c4b351ap+1, -0x1.31e102ce94a33p+1,
    -0x1.31dcf6fff7f73p+1, -0x1.31d91b2ce3f3ep+1, -0x1.31d56e06adb6ep+1, -0x1.31d1eedbe7dfcp+1,
    -0x1.31ce9d63fab8p+1, -0x1.31cb79936f949p+1, -0x1.31c883774bc89p+1, -0x1.31c5bb16a3836p+1,
    -0x1.31c3205a008c6p+1, -0x1.31c0b2f86f987p+1, -0x1.31be726a11f04p+1, -0x1.31bc5ddfff4bp+1,
    -0x1.31ba74411ffa6p+1, -0x1.31b8b42b7e78dp+1, -0x1.31b71bf96756p+1, -0x1.31b5a9c9913c7p+1,
    -0x1.31b45b8975a26p+1, -0x1.31b32f01019e3p+1, -0x1.31b221ded2c8ap+1, -0x1.31b131c44cbcdp+1,
    -0x1.31b05c50f4475p+1, -0x1.31af9f2ca2055p+1, -0x1.31aef81043691p+1, -0x1.31ae64cd03a78p+1,
    -0x1.31ade351d3bp+1, -0x1.31ad71af6062dp+1, -0x1.31ad0e1a977b7p+1, -0x1.31acb6ede71edp+1,
    -0x1.31ac6aa96a1e9p+1, -0x1.31ac27f23489bp+1, -0x1.31abed90f29f1p+1, -0x1.31abba70084c9p+1,
    -0x1.31ab8d9959bd2p+1, -0x1.31ab6633dfddbp+1, -0x1.31ab438125135p+1, -0x1.31ab24dac0e5dp+1,
    -0x1.31ab09afe3901p+1, -0x1.31aaf182fe194p+1, -0x1.31aadbe78f50ap+1, -0x1.31aac8801adbap+1,
    -0x1.31aab6fc4dp+1, -0x1.31aaa7174bb1fp+1, -0x1.31aa9896341p+1, -0x1.31aa8b46c25aap+1,
    -0x1.31aa7efe21d42p+1, -0x1.31aa7397e17cfp+1, -0x1.31aa68f50a5bdp+1, -0x1.31aa5efb543cfp+1,
    -0x1.31aa5594757dfp+1, -0x1.31aa4cad8af63p+1, -0x1.31aa4436952e6p+1, -0x1.31aa3c220812ep+1,
    -0x1.31aa34646afa5p+1, -0x1.31aa2cf406af8p+1, -0x1.31aa25c89fbc4p+1, -0x1.31aa1edb3b133p+1,
    -0x1.31aa1825ebce9p+1, -0x1.31aa11a3a8996p+1, -0x1.31aa0b5027a8p+1, -0x1.31aa0527c05f8p+1,
    -0x1.31a9ff27519dp+1, -0x1.31a9f94c2c2a8p+1, -0x1.31a9f39400893p+1, -0x1.31a9edfccfa37p+1,
    -0x1.31a9e884ddffdp+1, -0x1.31a9e32aa8ef2p+1, -0x1.31a9ddecdd7fdp+1, -0x1.31a9d8ca50ec8p+1,
    -0x1.31a9d3c1fa3efp+1, -0x1.31a9ced2ecfabp+1, -0x1.31a9c9fc54aa1p+1, -0x1.31a9c53d711e7p+1,
    -0x1.31a9c0959358ap+1, -0x1.31a9bc041ae1cp+1, -0x1.31a9b78873a4cp+1, -0x1.31a9b32214178p+1,
    -0x1.31a9aed07badcp+1, -0x1.31a9aa93319c6p+1, -0x1.31a9a669c3c0dp+1, -0x1.31a9a253c5bc4p+1,
    -0x1.31a99e50d035bp+1, -0x1.31a99a6080372p+1, -0x1.31a9968276a8fp+1, -0x1.31a992b657e66p+1,
    -0x1.31a98efbcb53dp+1, -0x1.31a98b527b143p+1, -0x1.31a987ba13ca8p+1, -0x1.31a98432445bdp+1,
    -0x1.31a980babdc0ep+1, -0x1.31a97d5332e0bp+1, -0x1.31a979fb586adp+1, -0x1.31a976b2e4bc7p+1,
    -0x1.31a973798fc67p+1, -0x1.31a9704f12f5fp+1, -0x1.31a96d332928bp+1, -0x1.31a96a258e948p+1,
    -0x1.31a9672600c3ep+1, -0x1.31a964343e7cap+1, -0x1.31a9615007c02p+1, -0x1.31a95e791dbb4p+1,
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Exact, bitwise comparison of a fit against the pinned rows.
void expect_pinned_counter_fit(const st::Gmm& model) {
    ASSERT_EQ(model.components().size(), kPinnedCounterFit.size());
    for (std::size_t c = 0; c < kPinnedCounterFit.size(); ++c) {
        const auto& got = model.components()[c];
        const auto& want = kPinnedCounterFit[c];
        EXPECT_EQ(bits(got.weight), bits(want.weight)) << "component " << c;
        EXPECT_EQ(bits(got.log_norm), bits(want.log_norm)) << "component " << c;
        for (std::size_t d = 0; d < want.mean.size(); ++d) {
            EXPECT_EQ(bits(got.mean[d]), bits(want.mean[d])) << c << " mean " << d;
        }
        for (std::size_t e = 0; e < want.covariance.size(); ++e) {
            EXPECT_EQ(bits(got.covariance[e]), bits(want.covariance[e]))
                << c << " covariance " << e;
            EXPECT_EQ(bits(got.chol[e]), bits(want.chol[e])) << c << " chol " << e;
        }
    }
    const auto& trace = model.training_trace();
    ASSERT_EQ(trace.size(), kPinnedCounterTrace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(bits(trace[i]), bits(kPinnedCounterTrace[i])) << "EM step " << i;
    }
}

// ---------------------------------------------------- fit team identity
// The EM team splits each E step by rows and each M step by component, and
// every sum keeps its serial row order, so the fit is the same bytes at
// every team size: 8 is more members than components or cores.
class GmmThreads : public ::testing::TestWithParam<std::size_t> {};

void expect_same_fit(const st::Gmm& got, const st::Gmm& want) {
    ASSERT_EQ(got.components().size(), want.components().size());
    for (std::size_t c = 0; c < want.components().size(); ++c) {
        const auto& g = got.components()[c];
        const auto& w = want.components()[c];
        EXPECT_EQ(bits(g.weight), bits(w.weight)) << "component " << c;
        EXPECT_EQ(bits(g.log_norm), bits(w.log_norm)) << "component " << c;
        for (std::size_t d = 0; d < w.mean.size(); ++d) {
            EXPECT_EQ(bits(g.mean[d]), bits(w.mean[d])) << c << " mean " << d;
        }
        for (std::size_t e = 0; e < w.covariance.size(); ++e) {
            EXPECT_EQ(bits(g.covariance[e]), bits(w.covariance[e]))
                << c << " covariance " << e;
            EXPECT_EQ(bits(g.chol[e]), bits(w.chol[e])) << c << " chol " << e;
        }
    }
    ASSERT_EQ(got.training_trace().size(), want.training_trace().size());
    for (std::size_t i = 0; i < want.training_trace().size(); ++i) {
        EXPECT_EQ(bits(got.training_trace()[i]), bits(want.training_trace()[i]))
            << "EM step " << i;
    }
}

TEST_P(GmmThreads, CounterFitMatchesHexfloatRows) {
    expect_pinned_counter_fit(
        ga::workload::fit_counter_gmm(4000, 2023 ^ 0x9E5u, GetParam()));
}

TEST_P(GmmThreads, ConvergedFitIsBitIdenticalToOneThread) {
    // Two well-separated clusters reach the tolerance early, so this also
    // pins the team's shared stopping verdict.
    ga::util::Rng rng(9);
    const auto data = two_cluster_data(300, rng);
    st::GmmOptions opt;
    opt.n_components = 4;
    const auto serial = st::Gmm::fit(data, 2, opt);
    ASSERT_LT(serial.training_trace().size(), opt.max_iterations);
    opt.threads = GetParam();
    expect_same_fit(st::Gmm::fit(data, 2, opt), serial);
}

TEST_P(GmmThreads, MStepErrorLeavesTheTeamAndReachesTheCaller) {
    // 200 unit-scale rows plus 40 exactly collinear rows at ~1e12: the
    // start is fine, but a later M step gives one component a covariance
    // that no jitter makes positive definite, inside the team.
    ga::util::Rng rng(4);
    std::vector<double> data;
    for (int i = 0; i < 400; ++i) data.push_back(rng.normal(0.0, 1.0));
    for (int i = 0; i < 40; ++i) {
        const double a = 1e12 * (1.0 + rng.uniform());
        data.push_back(a);
        data.push_back(a);
    }
    st::GmmOptions opt;
    opt.n_components = 2;
    opt.seed = 4;
    opt.max_iterations = 0;
    ASSERT_NO_THROW((void)st::Gmm::fit(data, 2, opt));
    opt.max_iterations = 50;
    opt.threads = GetParam();
    try {
        (void)st::Gmm::fit(data, 2, opt);
        FAIL() << "expected the M step to throw";
    } catch (const ga::util::PreconditionError& e) {
        EXPECT_NE(std::string(e.what()).find("covariance cannot be regularized"),
                  std::string::npos)
            << e.what();
    }
}

INSTANTIATE_TEST_SUITE_P(TeamSizes, GmmThreads,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

// ---------------------------------------------------------------- knn
TEST(Knn, ExactNeighborWinsWithK1) {
    const std::vector<double> features = {0, 0, 1, 1, 2, 2};  // 3 rows, dim 2
    const std::vector<double> targets = {10, 20, 30};
    const st::KnnRegressor knn(features, 2, targets, 1, 1);
    EXPECT_DOUBLE_EQ(knn.predict({1.0, 1.0})[0], 20.0);
    EXPECT_EQ(knn.neighbors({2.0, 2.0})[0], 2u);
}

TEST(Knn, UniformAveragesNeighbors) {
    const std::vector<double> features = {0, 0, 2, 0, 1, 10};
    const std::vector<double> targets = {10, 30, 1000};
    const st::KnnRegressor knn(features, 2, targets, 1, 2,
                               st::KnnWeighting::Uniform);
    // The two nearest rows to (1, 0) are rows 0 and 1.
    EXPECT_DOUBLE_EQ(knn.predict({1.0, 0.0})[0], 20.0);
}

TEST(Knn, InverseDistanceWeighting) {
    const std::vector<double> features = {0.0, 10.0};
    const std::vector<double> targets = {0.0, 100.0};
    const st::KnnRegressor knn(features, 1, targets, 1, 2,
                               st::KnnWeighting::InverseDistance);
    // Query very close to row 0 should be pulled toward 0.
    EXPECT_LT(knn.predict({0.5})[0], 30.0);
}

TEST(Knn, StandardizationMakesScalesComparable) {
    // Feature 1 has a huge scale; without standardization it would dominate.
    const std::vector<double> features = {0.0, 0.0, 1.0, 1e6, 0.9, 0.0};
    const std::vector<double> targets = {1.0, 2.0, 3.0};
    const st::KnnRegressor knn(features, 2, targets, 1, 1);
    // (0.95, 0): nearest by standardized distance is row 2, not row 1.
    EXPECT_DOUBLE_EQ(knn.predict({0.95, 0.0})[0], 3.0);
}

TEST(Knn, MultiOutput) {
    const std::vector<double> features = {0, 1};
    const std::vector<double> targets = {1, 2, 3, 4};  // 2 rows x 2 outputs
    const st::KnnRegressor knn(features, 1, targets, 2, 1);
    const auto out = knn.predict({0.9});
    EXPECT_DOUBLE_EQ(out[0], 3.0);
    EXPECT_DOUBLE_EQ(out[1], 4.0);
}

TEST(Knn, RejectsBadK) {
    const std::vector<double> features = {0, 1};
    const std::vector<double> targets = {1, 2};
    EXPECT_THROW(st::KnnRegressor(features, 1, targets, 1, 3),
                 ga::util::PreconditionError);
}

// Parameterized: KNN regression error shrinks as k approaches a sensible
// small value on smooth data.
class KnnKSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KnnKSweep, SmoothFunctionRegression) {
    ga::util::Rng rng(9);
    std::vector<double> features;
    std::vector<double> targets;
    for (int i = 0; i < 400; ++i) {
        const double x = rng.uniform(0.0, 6.28);
        features.push_back(x);
        targets.push_back(std::sin(x));
    }
    const st::KnnRegressor knn(features, 1, targets, 1, GetParam());
    double max_err = 0.0;
    for (double q = 0.5; q < 6.0; q += 0.5) {
        max_err = std::max(max_err, std::abs(knn.predict({q})[0] - std::sin(q)));
    }
    EXPECT_LT(max_err, 0.15);
}

INSTANTIATE_TEST_SUITE_P(Ks, KnnKSweep, ::testing::Values(1u, 3u, 5u, 9u));

}  // namespace
