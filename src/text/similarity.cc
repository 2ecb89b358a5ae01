#include "src/text/similarity.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

namespace textutil {
namespace {

// Word bytes: ASCII letters and digits, plus every byte >= 0x80, so UTF-8
// encoded non-ASCII letters ("Шрифт") form words instead of vanishing. Only
// ASCII is case-folded; explicit ranges keep this independent of the locale.
bool IsWordByte(unsigned char c) {
  return c >= 0x80 || (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
         (c >= 'A' && c <= 'Z');
}

char AsciiLower(char c) { return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c; }

std::string ToLowerCopy(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = AsciiLower(c);
  }
  return out;
}

std::set<std::string> WordSet(std::string_view text) {
  std::set<std::string> words;
  std::string current;
  for (char c : text) {
    if (IsWordByte(static_cast<unsigned char>(c))) {
      current += AsciiLower(c);
    } else if (!current.empty()) {
      words.insert(current);
      current.clear();
    }
  }
  if (!current.empty()) {
    words.insert(current);
  }
  return words;
}

}  // namespace

size_t EditDistance(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) {
    std::swap(a, b);
  }
  const size_t m = b.size();
  std::vector<size_t> prev(m + 1);
  std::vector<size_t> cur(m + 1);
  for (size_t j = 0; j <= m; ++j) {
    prev[j] = j;
  }
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      const size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

double NameSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) {
    return 1.0;
  }
  const size_t longest = std::max(a.size(), b.size());
  const size_t dist = EditDistance(a, b);
  return 1.0 - static_cast<double>(dist) / static_cast<double>(longest);
}

double TokenSetRatio(std::string_view a, std::string_view b) {
  const auto wa = WordSet(a);
  const auto wb = WordSet(b);
  if (wa.empty() && wb.empty()) {
    return 1.0;
  }
  if (wa.empty() || wb.empty()) {
    return 0.0;
  }
  size_t inter = 0;
  for (const auto& w : wa) {
    if (wb.count(w) > 0) {
      ++inter;
    }
  }
  const size_t uni = wa.size() + wb.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

namespace {

// True if `prefix` is a whole-word prefix of `full` (case-insensitive).
bool IsWholeWordPrefix(std::string_view prefix, std::string_view full) {
  const std::string lo = ToLowerCopy(prefix);
  const std::string hi = ToLowerCopy(full);
  if (lo.empty() || hi.size() <= lo.size() || hi.compare(0, lo.size(), lo) != 0) {
    return false;
  }
  return !IsWordByte(static_cast<unsigned char>(hi[lo.size()]));
}

}  // namespace

double FuzzyScore(std::string_view a, std::string_view b) {
  double score = std::max(NameSimilarity(a, b), TokenSetRatio(a, b));
  // Decoration rule: UI name variations are nearly always suffix decorations
  // ("Bold" -> "Bold (Ctrl+B)", "Bold...", "Bold ").
  if (IsWholeWordPrefix(a, b) || IsWholeWordPrefix(b, a)) {
    score = std::max(score, 0.93);
  }
  return score;
}

double DecorationAwareScore(std::string_view model_name, std::string_view screen_name) {
  double score = std::max(NameSimilarity(model_name, screen_name),
                          TokenSetRatio(model_name, screen_name));
  if (IsWholeWordPrefix(model_name, screen_name)) {
    score = std::max(score, 0.93);
  }
  return score;
}

}  // namespace textutil
