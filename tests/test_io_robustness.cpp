// Hostile-input robustness corpus for the I/O layer (io/json.hpp,
// io/scenario.hpp): pathological documents an untrusted scenario file could
// carry. Every case must end in a clean `ga::util::RuntimeError` with a
// useful diagnostic (or a well-defined parse) — never a crash, stack
// overflow, or silent misread. The suite is run under ASan/UBSan in CI, so
// "no crash" is checked with sanitizer teeth.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "io/json.hpp"
#include "io/scenario.hpp"
#include "util/error.hpp"

namespace {

using ga::io::JsonValue;
using ga::io::parse_json;
using ga::io::write_json;
using ga::util::RuntimeError;

/// `depth` nested containers around a scalar: "[[[…0…]]]" or {"k":{"k":…}}.
std::string nested_doc(std::size_t depth, bool objects) {
    std::string doc;
    for (std::size_t i = 0; i < depth; ++i) doc += objects ? "{\"k\":" : "[";
    doc += "0";
    for (std::size_t i = 0; i < depth; ++i) doc += objects ? "}" : "]";
    return doc;
}

std::string error_of(const std::string& doc) {
    try {
        (void)parse_json(doc);
    } catch (const RuntimeError& e) {
        return e.what();
    }
    return {};
}

TEST(IoRobustness, NestingAtTheLimitParsesAndBeyondFailsCleanly) {
    // 256 levels is the documented limit; 257 must be a diagnostic, not a
    // deeper recursion.
    for (const bool objects : {false, true}) {
        const auto at_limit = parse_json(nested_doc(256, objects));
        EXPECT_TRUE(objects ? at_limit.is_object() : at_limit.is_array());

        const auto message = error_of(nested_doc(257, objects));
        EXPECT_NE(message.find("nesting"), std::string::npos) << message;
    }
}

TEST(IoRobustness, PathologicallyDeepDocumentsCannotOverflowTheStack) {
    // A million open brackets is ~1MB of input and would be a ~1M-frame
    // recursion without the depth guard. The parser must bail at the limit
    // — under ASan this is the stack-overflow regression test.
    EXPECT_THROW((void)parse_json(std::string(1'000'000, '[')),
                 RuntimeError);
    EXPECT_THROW((void)parse_json(nested_doc(1'000'000, false)),
                 RuntimeError);
    std::string zigzag;
    for (int i = 0; i < 250'000; ++i) zigzag += "[{\"k\":";
    zigzag += "0";
    EXPECT_THROW((void)parse_json(zigzag), RuntimeError);
}

TEST(IoRobustness, IntegersNearTheDoublePrecisionCliffStayExact) {
    // 2^53 is the last contiguous exact integer in a double. Values at and
    // below it must round-trip bit-exactly through parse → write → parse.
    const double two53 = 9007199254740992.0;  // 2^53
    EXPECT_EQ(parse_json("9007199254740992").as_number(), two53);
    EXPECT_EQ(parse_json("9007199254740991").as_number(), two53 - 1.0);
    EXPECT_EQ(parse_json("-9007199254740992").as_number(), -two53);
    // 2^53 + 1 is not representable; IEEE round-to-nearest lands on 2^53.
    EXPECT_EQ(parse_json("9007199254740993").as_number(), two53);

    for (const char* doc :
         {"9007199254740991", "9007199254740992", "-9007199254740991",
          "1e308", "-1.7976931348623157e308", "5e-324"}) {
        const auto value = parse_json(doc);
        const auto round_tripped = parse_json(write_json(value, 0));
        EXPECT_EQ(round_tripped.as_number(), value.as_number()) << doc;
    }
}

TEST(IoRobustness, OverflowingNumbersAreRejectedNotInfinity) {
    // from_chars reports out-of-range; the parser must surface that as a
    // diagnostic instead of materializing inf (which write_json could then
    // never serialize).
    EXPECT_THROW((void)parse_json("1e999"), RuntimeError);
    EXPECT_THROW((void)parse_json("-1e999"), RuntimeError);
    EXPECT_THROW((void)parse_json(std::string(400, '9')), RuntimeError);
}

TEST(IoRobustness, EveryTruncationOfAScenarioDocumentFailsCleanly) {
    // Chop a real scenario document at every byte boundary: no prefix may
    // parse (the document is an object, so only the full text closes it)
    // and none may crash.
    const std::string doc = R"({"name": "trunc", "workload": {"base_jobs": 100,
        "users": 10, "span_days": 1.5, "seed": 7, "arrival": "diurnal"},
        "options": {"policy": "Greedy"}})";
    EXPECT_NO_THROW((void)parse_json(doc));
    for (std::size_t len = 0; len < doc.size(); ++len) {
        EXPECT_THROW((void)parse_json(doc.substr(0, len)), RuntimeError)
            << "prefix of length " << len << " parsed";
    }
}

TEST(IoRobustness, TruncatedAndMalformedScenarioFilesNameThePath) {
    namespace fs = std::filesystem;
    const auto dir = fs::temp_directory_path() / "ga_io_robustness";
    fs::create_directories(dir);
    const auto path = dir / "hostile.json";

    const auto write_file = [&](const std::string& text) {
        std::ofstream out(path, std::ios::trunc);
        out << text;
    };
    const auto load_error = [&]() -> std::string {
        try {
            (void)ga::io::load_scenario_file(path);
        } catch (const RuntimeError& e) {
            return e.what();
        }
        return {};
    };

    // Truncated mid-object, hostile nesting, and a wrong-typed schema: all
    // must throw an error that names the offending file.
    for (const std::string text :
         {std::string(R"({"name": "x", "workload": {"base_jo)"),
          nested_doc(100'000, true),
          std::string(R"({"name": 42})"),
          std::string(R"([1, 2, 3])")}) {
        write_file(text);
        const auto message = load_error();
        ASSERT_FALSE(message.empty());
        EXPECT_NE(message.find("hostile.json"), std::string::npos) << message;
    }

    EXPECT_THROW((void)ga::io::load_scenario_file(dir / "missing.json"),
                 RuntimeError);
    fs::remove_all(dir);
}

TEST(IoRobustness, ScenarioSchemaViolationsCarryTheFieldPath) {
    const auto error_path = [](const std::string& doc) -> std::string {
        try {
            (void)ga::io::scenario_from_json(parse_json(doc));
        } catch (const RuntimeError& e) {
            return e.what();
        }
        return {};
    };

    // Wrong types and out-of-domain values: the diagnostic must point at
    // the exact field, so a hostile file is debuggable from the message.
    EXPECT_NE(error_path(R"({"name": "x", "workload": []})")
                  .find("workload"),
              std::string::npos);
    EXPECT_NE(error_path(R"({"name": "x", "workload": {"base_jobs": 1.5}})")
                  .find("base_jobs"),
              std::string::npos);
    EXPECT_NE(error_path(R"({"name": "x", "workload": {"base_jobs": -3}})")
                  .find("base_jobs"),
              std::string::npos);
    EXPECT_NE(
        error_path(
            R"({"name": "x", "workload": {"burst_fraction": 1.5}})")
            .find("burst_fraction"),
        std::string::npos);
    EXPECT_NE(
        error_path(R"({"name": "x", "workload": {"arrival": "chaotic"}})")
            .find("arrival"),
        std::string::npos);

    // Specs with out-of-domain parameters are built once at load, so they
    // fail here with the key that named them, not later inside a run.
    EXPECT_NE(error_path(R"json({"name": "x", "grid":
                  {"policy_specs": ["Mixed(threshold=0.5)"]}})json")
                  .find("grid.policy_specs[0]"),
              std::string::npos);
    EXPECT_NE(error_path(R"json({"name": "x", "grid":
                  {"policies": ["Greedy", "BudgetPacing(slack=-1)"]}})json")
                  .find("grid.policies[1]"),
              std::string::npos);
    EXPECT_NE(error_path(R"json({"name": "x", "options":
                  {"pricing": "EBA(pue=1.58)"}})json")
                  .find("options.pricing"),
              std::string::npos);
    EXPECT_NE(error_path(R"json({"name": "x", "options": {"currency_budgets":
                  [{"currency": "c", "accountant": "CBA(depreciation=2)",
                    "budget": 1}]}})json")
                  .find("options.currency_budgets[0].accountant"),
              std::string::npos);

    // Near-2^53 integers survive the schema layer exactly (nothing clamps
    // or wraps them), even though such a workload would never be built.
    const auto huge = ga::io::scenario_from_json(parse_json(
        R"({"name": "big", "workload": {"base_jobs": 9007199254740992}})"));
    EXPECT_EQ(huge.workload.base_jobs, 9007199254740992ull);
}

}  // namespace
