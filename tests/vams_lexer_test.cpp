#include <gtest/gtest.h>

#include <algorithm>

#include "support/diagnostics.hpp"
#include "vams/lexer.hpp"

namespace amsvp::vams {
namespace {

std::vector<Token> lex(std::string_view source, support::DiagnosticEngine& diags) {
    Lexer lexer(source, diags);
    return lexer.tokenize();
}

std::vector<Token> lex_ok(std::string_view source) {
    support::DiagnosticEngine diags;
    auto tokens = lex(source, diags);
    EXPECT_FALSE(diags.has_errors()) << diags.render_all();
    return tokens;
}

TEST(Lexer, KeywordsAndIdentifiers) {
    const auto tokens = lex_ok("module foo endmodule");
    ASSERT_EQ(tokens.size(), 4u);  // + kEnd
    EXPECT_EQ(tokens[0].kind, TokenKind::kModule);
    EXPECT_EQ(tokens[1].kind, TokenKind::kIdentifier);
    EXPECT_EQ(tokens[1].text, "foo");
    EXPECT_EQ(tokens[2].kind, TokenKind::kEndmodule);
    EXPECT_EQ(tokens[3].kind, TokenKind::kEnd);
}

TEST(Lexer, SystemIdentifiers) {
    const auto tokens = lex_ok("$abstime");
    EXPECT_EQ(tokens[0].kind, TokenKind::kIdentifier);
    EXPECT_EQ(tokens[0].text, "$abstime");
}

struct SuffixCase {
    const char* text;
    double value;
};

// Names each case by its literal. Without this gtest prints the struct's
// raw bytes, pointer included, so the ctest names changed on every build.
void PrintTo(const SuffixCase& c, std::ostream* os) { *os << c.text; }

class ScaleSuffixes : public ::testing::TestWithParam<SuffixCase> {};

TEST_P(ScaleSuffixes, AppliesFactor) {
    const auto tokens = lex_ok(GetParam().text);
    ASSERT_EQ(tokens[0].kind, TokenKind::kNumber);
    EXPECT_DOUBLE_EQ(tokens[0].number, GetParam().value);
}

INSTANTIATE_TEST_SUITE_P(
    All, ScaleSuffixes,
    ::testing::Values(SuffixCase{"5k", 5e3}, SuffixCase{"5K", 5e3}, SuffixCase{"25n", 25e-9},
                      SuffixCase{"1.6M", 1.6e6}, SuffixCase{"40u", 40e-6},
                      SuffixCase{"2p", 2e-12}, SuffixCase{"3f", 3e-15},
                      SuffixCase{"7T", 7e12}, SuffixCase{"1G", 1e9},
                      SuffixCase{"10m", 10e-3}, SuffixCase{"2a", 2e-18}));

TEST(Lexer, PlainNumbersAndExponents) {
    const auto tokens = lex_ok("42 3.25 1e-3 2.5E6 7e+2");
    EXPECT_DOUBLE_EQ(tokens[0].number, 42.0);
    EXPECT_DOUBLE_EQ(tokens[1].number, 3.25);
    EXPECT_DOUBLE_EQ(tokens[2].number, 1e-3);
    EXPECT_DOUBLE_EQ(tokens[3].number, 2.5e6);
    EXPECT_DOUBLE_EQ(tokens[4].number, 7e2);
}

TEST(Lexer, SuffixNotConsumedWhenPartOfIdentifier) {
    // "5kOhm" would be "5k" followed by "Ohm" only if the suffix rule ignored
    // the following character; it must instead lex 5 then identifier kOhm.
    const auto tokens = lex_ok("5kOhm");
    ASSERT_GE(tokens.size(), 3u);
    EXPECT_DOUBLE_EQ(tokens[0].number, 5.0);
    EXPECT_EQ(tokens[1].text, "kOhm");
}

TEST(Lexer, ContributionOperator) {
    const auto tokens = lex_ok("V(out) <+ 1; x <= 2; y < 3");
    std::vector<TokenKind> kinds;
    for (const Token& t : tokens) {
        kinds.push_back(t.kind);
    }
    EXPECT_NE(std::find(kinds.begin(), kinds.end(), TokenKind::kContrib), kinds.end());
    EXPECT_NE(std::find(kinds.begin(), kinds.end(), TokenKind::kLe), kinds.end());
    EXPECT_NE(std::find(kinds.begin(), kinds.end(), TokenKind::kLt), kinds.end());
}

TEST(Lexer, TwoCharacterOperators) {
    const auto tokens = lex_ok("== != >= && || !");
    EXPECT_EQ(tokens[0].kind, TokenKind::kEqEq);
    EXPECT_EQ(tokens[1].kind, TokenKind::kNotEq);
    EXPECT_EQ(tokens[2].kind, TokenKind::kGe);
    EXPECT_EQ(tokens[3].kind, TokenKind::kAndAnd);
    EXPECT_EQ(tokens[4].kind, TokenKind::kOrOr);
    EXPECT_EQ(tokens[5].kind, TokenKind::kNot);
}

TEST(Lexer, LineAndBlockComments) {
    const auto tokens = lex_ok("a // line comment\n b /* block\n comment */ c");
    ASSERT_EQ(tokens.size(), 4u);
    EXPECT_EQ(tokens[0].text, "a");
    EXPECT_EQ(tokens[1].text, "b");
    EXPECT_EQ(tokens[2].text, "c");
}

TEST(Lexer, TracksLineNumbers) {
    const auto tokens = lex_ok("a\nb\n  c");
    EXPECT_EQ(tokens[0].location.line, 1u);
    EXPECT_EQ(tokens[1].location.line, 2u);
    EXPECT_EQ(tokens[2].location.line, 3u);
    EXPECT_EQ(tokens[2].location.column, 3u);
}

TEST(Lexer, ReportsUnterminatedBlockComment) {
    support::DiagnosticEngine diags;
    (void)lex("a /* never closed", diags);
    EXPECT_TRUE(diags.has_errors());
}

TEST(Lexer, ReportsUnexpectedCharacter) {
    support::DiagnosticEngine diags;
    (void)lex("a @ b", diags);
    EXPECT_TRUE(diags.has_errors());
}

TEST(Lexer, SingleAmpersandIsError) {
    support::DiagnosticEngine diags;
    (void)lex("a & b", diags);
    EXPECT_TRUE(diags.has_errors());
}

}  // namespace
}  // namespace amsvp::vams
