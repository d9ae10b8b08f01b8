/**
 * @file
 * Near-miss suggestion helper shared by the CLI parser and the
 * scheduler-policy registries: given a user-typed name and the set of
 * valid names, find the closest candidate worth suggesting in a
 * "did you mean ...?" diagnostic, and the registries' one diagnostic
 * for an unknown name.
 */

#ifndef EMERALD_SIM_NEAREST_HH
#define EMERALD_SIM_NEAREST_HH

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace emerald
{

/** Classic Levenshtein distance (names are short; O(n*m) is fine). */
inline std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            std::size_t prev = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                               diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
            diag = prev;
        }
    }
    return row[b.size()];
}

/**
 * Closest candidate within an edit distance worth suggesting, or ""
 * when nothing is close enough to be a plausible typo.
 */
inline std::string
nearestMatch(const std::string &name,
             const std::vector<std::string> &candidates)
{
    std::string best;
    std::size_t best_dist = std::max<std::size_t>(2, name.size() / 3);
    for (const std::string &candidate : candidates) {
        std::size_t d = editDistance(name, candidate);
        if (d <= best_dist) {
            best_dist = d - 1; // Strictly better from now on.
            best = candidate;
        }
    }
    return best;
}

/**
 * Refuse @p name, which is not one of the @p known names of @p kind
 * ("warp scheduler policy"): the message suggests the nearest match,
 * if any, and lists every known name.
 */
[[noreturn]] inline void
fatalUnknownName(const char *kind, const std::string &name,
                 const std::vector<std::string> &known)
{
    std::string suggestion = nearestMatch(name, known);
    std::string list;
    for (const std::string &k : known)
        list += (list.empty() ? "" : ", ") + k;
    if (!suggestion.empty()) {
        fatal("unknown %s '%s' — did you mean '%s'? (known: %s)", kind,
              name.c_str(), suggestion.c_str(), list.c_str());
    }
    fatal("unknown %s '%s' (known: %s)", kind, name.c_str(),
          list.c_str());
}

} // namespace emerald

#endif // EMERALD_SIM_NEAREST_HH
