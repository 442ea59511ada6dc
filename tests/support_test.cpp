#include <gtest/gtest.h>

#include "support/diagnostics.hpp"
#include "support/strings.hpp"

namespace amsvp::support {
namespace {

TEST(Strings, TrimRemovesSurroundingWhitespace) {
    EXPECT_EQ(trim("  hello \t\n"), "hello");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, SplitPreservesEmptyFields) {
    const auto parts = split("a,,b,", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
    EXPECT_EQ(parts[3], "");
}

TEST(Strings, ToLower) {
    EXPECT_EQ(to_lower("RC20 Model"), "rc20 model");
}

class FormatDoubleRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(FormatDoubleRoundTrip, ParsesBackToSameValue) {
    const double value = GetParam();
    const std::string text = format_double(value);
    EXPECT_EQ(std::stod(text), value) << text;
}

INSTANTIATE_TEST_SUITE_P(Values, FormatDoubleRoundTrip,
                         ::testing::Values(0.0, 1.0, -1.0, 0.001, 5e3, 2.5e-8, 1.0 / 3.0,
                                           6.02214076e23, -1.6e3, 4e-8, 1e-15, 123456.789));

TEST(FormatDouble, UsesCompactForms) {
    EXPECT_EQ(format_double(5000.0), "5000");   // shorter than 5e+03
    EXPECT_EQ(format_double(100.0), "100");     // shorter than 1e+02
    EXPECT_EQ(format_double(5e-8), "5e-08");    // shorter than 0.00000005
    EXPECT_EQ(format_double(0.001), "0.001");
    EXPECT_EQ(format_double(1.0), "1");
}

TEST(Diagnostics, CountsAndRendersErrors) {
    DiagnosticEngine engine;
    EXPECT_FALSE(engine.has_errors());
    engine.note({1, 1}, "just a note");
    engine.warning({2, 3}, "look here");
    engine.error({4, 5}, "broken");
    EXPECT_TRUE(engine.has_errors());
    EXPECT_EQ(engine.error_count(), 1u);
    EXPECT_EQ(engine.diagnostics().size(), 3u);

    const std::string rendered = engine.render_all();
    EXPECT_NE(rendered.find("note at 1:1: just a note"), std::string::npos);
    EXPECT_NE(rendered.find("warning at 2:3: look here"), std::string::npos);
    EXPECT_NE(rendered.find("error at 4:5: broken"), std::string::npos);
}

TEST(Diagnostics, ClearResets) {
    DiagnosticEngine engine;
    engine.error({1, 1}, "x");
    engine.clear();
    EXPECT_FALSE(engine.has_errors());
    EXPECT_TRUE(engine.diagnostics().empty());
}

TEST(Diagnostics, UnknownLocationRendersWithoutPosition) {
    Diagnostic d{Severity::kError, {}, "no location"};
    EXPECT_EQ(d.render(), "error: no location");
}

TEST(SourceLocation, ToString) {
    EXPECT_EQ(to_string(SourceLocation{7, 12}), "7:12");
    EXPECT_EQ(to_string(SourceLocation{}), "?");
}

}  // namespace
}  // namespace amsvp::support
