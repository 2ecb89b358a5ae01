// Fuzzy string similarity used by the visit executor's fuzzy control matcher
// (paper §3.4 "Handling unstable UI interaction"): when exact matching fails
// because of name variations, DMI matches by control type, ancestor hierarchy
// and name similarity.
#ifndef SRC_TEXT_SIMILARITY_H_
#define SRC_TEXT_SIMILARITY_H_

#include <cstddef>
#include <string_view>

namespace textutil {

// Classic Levenshtein edit distance.
size_t EditDistance(std::string_view a, std::string_view b);

// 1 - normalized edit distance, in [0,1]; 1.0 means identical.
double NameSimilarity(std::string_view a, std::string_view b);

// Token-set ratio: similarity of the sets of lowercase words, robust to word
// reordering and decorations ("Bold (Ctrl+B)" vs "Bold"). In [0,1]. Words
// are runs of ASCII letters/digits and UTF-8 (>= 0x80) bytes; only ASCII is
// case-folded.
double TokenSetRatio(std::string_view a, std::string_view b);

// Combined score used by the fuzzy matcher: max of character-level and
// token-set similarity, plus a symmetric whole-word-prefix decoration rule.
double FuzzyScore(std::string_view a, std::string_view b);

// Directional variant for control matching: name variations *decorate* (i.e.
// lengthen) the on-screen name, so the prefix rule applies only when the
// modeled name is a whole-word prefix of the screen name — never the
// reverse. Prevents "Underline Color" (modeled) from matching a visible
// "Underline" button.
double DecorationAwareScore(std::string_view model_name, std::string_view screen_name);

}  // namespace textutil

#endif  // SRC_TEXT_SIMILARITY_H_
