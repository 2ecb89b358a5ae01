#include <gtest/gtest.h>

#include "src/text/similarity.h"
#include "src/text/tokens.h"

namespace {

// ----- tokens ------------------------------------------------------------------

TEST(TokensTest, EmptyIsZero) { EXPECT_EQ(textutil::CountTokens(""), 0u); }

TEST(TokensTest, ShortWordsOneTokenEach) {
  EXPECT_EQ(textutil::CountTokens("bold"), 1u);
  EXPECT_EQ(textutil::CountTokens("font color"), 2u);
}

TEST(TokensTest, LongWordsSplit) {
  // "internationalization" = 20 chars -> 5 chunks of 4.
  EXPECT_EQ(textutil::CountTokens("internationalization"), 5u);
}

TEST(TokensTest, DigitsGroupInThrees) {
  EXPECT_EQ(textutil::CountTokens("123456"), 2u);
  EXPECT_EQ(textutil::CountTokens("1234567"), 3u);
}

TEST(TokensTest, PunctuationCounts) {
  EXPECT_EQ(textutil::CountTokens("a,b"), 3u);
  EXPECT_EQ(textutil::CountTokens("(x)"), 3u);
}

TEST(TokensTest, RepeatedSeparatorRunsCompress) {
  EXPECT_EQ(textutil::CountTokens("----"), 1u);
  EXPECT_EQ(textutil::CountTokens("--------"), 2u);
}

TEST(TokensTest, WhitespaceIsFree) {
  EXPECT_EQ(textutil::CountTokens("  a   b  "), textutil::CountTokens("a b"));
}

TEST(TokensTest, ControlDescriptionAveragesNearPaperEstimate) {
  // Paper §5.4: ~15 tokens per serialized control. A representative
  // serialized control line should land in a plausible band around that.
  const std::string line =
      "Font Color(SplitButton)(Opens the color palette for text color)_214"
      "[Blue_87,Dark Red_88]";
  size_t tokens = textutil::CountTokens(line);
  EXPECT_GE(tokens, 10u);
  EXPECT_LE(tokens, 40u);
}

TEST(TokensTest, StreamingCountMatchesPieces) {
  // CountTokens is a single streaming pass; TokenizePieces is the reference
  // implementation. They must agree on every input shape.
  const char* samples[] = {
      "",
      "bold",
      "Font Color(SplitButton)(Opens the color palette)_214[Blue_87,Dark Red_88]",
      "# Navigation topology\n## Main tree\n[Root](Window)_1[File(MenuItem)_2]",
      "  leading   and   trailing   whitespace  ",
      "digits 123456789 mixed with words and --- separator runs....",
      "internationalization antidisestablishmentarianism a b c",
      "@ref->S0_42,@ref->S1_77\n## Entry map (ref_id->subtree:root_id)\n42->S0:9\n",
  };
  for (const char* s : samples) {
    EXPECT_EQ(textutil::CountTokens(s), textutil::TokenizePieces(s).size()) << s;
  }
}

TEST(TokensTest, CountTokensAppendSumsSegmentsAtWhitespace) {
  // Segment sums equal the concatenated count when split points fall on
  // whitespace — the contract prompt assembly relies on (static segments end
  // with '\n').
  const std::string head = "# DMI usage\nPrefer DMI. visit([...]) accesses ids.\n";
  const std::string mid = "# Navigation topology\n## Main tree\nRoot(Window)_1\n";
  const std::string tail = "\n# Current screen\nA1 Bold (Button)\nA2 Italic (Button)\n";
  size_t total = 0;
  size_t h = textutil::CountTokensAppend(head, &total);
  size_t m = textutil::CountTokensAppend(mid, &total);
  size_t t = textutil::CountTokensAppend(tail, &total);
  EXPECT_EQ(h, textutil::CountTokens(head));
  EXPECT_EQ(m, textutil::CountTokens(mid));
  EXPECT_EQ(t, textutil::CountTokens(tail));
  EXPECT_EQ(total, h + m + t);
  EXPECT_EQ(total, textutil::CountTokens(head + mid + tail));
}

TEST(TokensTest, TruncateToTokensNoCutWhenUnderBudget) {
  EXPECT_EQ(textutil::TruncateToTokens("a b c", 10), "a b c");
}

TEST(TokensTest, TruncateToTokensCutsAtBoundary) {
  std::string out = textutil::TruncateToTokens("alpha beta gamma delta", 2);
  EXPECT_EQ(out, std::string("alpha beta") + "…");
}

TEST(TokensTest, TruncateToZero) {
  EXPECT_EQ(textutil::TruncateToTokens("anything", 0), "");
}

TEST(TokensTest, TruncatedTextTokenCountWithinBudget) {
  const std::string text =
      "The quick brown fox jumps over the lazy dog repeatedly and often";
  for (size_t budget : {1u, 3u, 5u, 8u}) {
    std::string cut = textutil::TruncateToTokens(text, budget);
    // Remove the ellipsis marker before recounting.
    if (cut.size() >= 3 && cut.substr(cut.size() - 3) == "…") {
      cut = cut.substr(0, cut.size() - 3);
    }
    EXPECT_LE(textutil::CountTokens(cut), budget);
  }
}

// ----- similarity ----------------------------------------------------------------

TEST(SimilarityTest, EditDistanceBasics) {
  EXPECT_EQ(textutil::EditDistance("", ""), 0u);
  EXPECT_EQ(textutil::EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(textutil::EditDistance("abc", "abd"), 1u);
  EXPECT_EQ(textutil::EditDistance("abc", ""), 3u);
  EXPECT_EQ(textutil::EditDistance("kitten", "sitting"), 3u);
}

TEST(SimilarityTest, EditDistanceSymmetric) {
  EXPECT_EQ(textutil::EditDistance("Bold", "Bold (Ctrl+B)"),
            textutil::EditDistance("Bold (Ctrl+B)", "Bold"));
}

TEST(SimilarityTest, NameSimilarityIdentical) {
  EXPECT_DOUBLE_EQ(textutil::NameSimilarity("Apply to All", "Apply to All"), 1.0);
  EXPECT_DOUBLE_EQ(textutil::NameSimilarity("", ""), 1.0);
}

TEST(SimilarityTest, NameSimilarityBounds) {
  double s = textutil::NameSimilarity("Font Color", "Underline Color");
  EXPECT_GT(s, 0.0);
  EXPECT_LT(s, 1.0);
}

TEST(SimilarityTest, TokenSetIgnoresDecoration) {
  // The exact hazard the fuzzy matcher must survive: decorated names.
  EXPECT_GT(textutil::TokenSetRatio("Bold", "Bold (Ctrl+B)"), 0.3);
  EXPECT_DOUBLE_EQ(textutil::TokenSetRatio("Apply to All", "all apply TO"), 1.0);
}

TEST(SimilarityTest, TokenSetDisjoint) {
  EXPECT_DOUBLE_EQ(textutil::TokenSetRatio("alpha", "beta"), 0.0);
}

TEST(SimilarityTest, FuzzyScoreAcceptsTypicalVariations) {
  // Every decoration variant the instability injector produces must stay
  // above the matcher threshold (0.72) against the true name.
  const std::string base = "Apply to All";
  for (const std::string& variant :
       {base + "...", base + " ", base + " (Ctrl+K)", base + " control"}) {
    EXPECT_GT(textutil::FuzzyScore(base, variant), 0.72) << variant;
  }
}

TEST(SimilarityTest, FuzzyScoreRejectsDifferentControls) {
  EXPECT_LT(textutil::FuzzyScore("Font Color", "Page Color"), 0.72);
  EXPECT_LT(textutil::FuzzyScore("OK", "Cancel"), 0.5);
}

// Non-ASCII (UTF-8) names form words: two different Cyrillic names must not
// look identical just because neither has an ASCII letter.
TEST(SimilarityTest, NonAsciiNamesAreWords) {
  EXPECT_DOUBLE_EQ(textutil::TokenSetRatio("Шрифт", "Абзац"), 0.0);
  EXPECT_LT(textutil::DecorationAwareScore("Шрифт", "Абзац"), 0.5);
  EXPECT_LT(textutil::FuzzyScore("Шрифт", "Абзац"), 0.5);
  EXPECT_DOUBLE_EQ(textutil::TokenSetRatio("Шрифт", "Шрифт"), 1.0);
  EXPECT_DOUBLE_EQ(textutil::TokenSetRatio("Шрифт Абзац", "Абзац"), 0.5);
  EXPECT_DOUBLE_EQ(textutil::TokenSetRatio("BOLD Шрифт", "bold Шрифт"), 1.0);
}

TEST(SimilarityTest, NonAsciiWholeWordPrefixNeedsAWordBoundary) {
  // "Ш" is a byte prefix of "Шрифт" but not a whole word of it.
  EXPECT_LT(textutil::DecorationAwareScore("Ш", "Шрифт"), 0.72);
  // A decorated non-ASCII name still matches its model name.
  EXPECT_GT(textutil::DecorationAwareScore("Шрифт", "Шрифт (Ctrl+D)"), 0.72);
  EXPECT_GT(textutil::FuzzyScore("Шрифт", "Шрифт..."), 0.72);
}

}  // namespace
