// Answer checks of the perfbench workloads, independent of every search
// engine and of the library's baselines: a plain Hamming scan as the oracle,
// and property checks that every answer must pass.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "alphabet/dna.h"
#include "inputs.h"
#include "search/match.h"

namespace perfbench {

/// Every start position whose window is within Hamming distance k of
/// `pattern`, in position order.
std::vector<bwtk::Occurrence> HammingScan(
    const std::vector<bwtk::DnaCode>& text,
    const std::vector<bwtk::DnaCode>& pattern, int32_t k);

/// Deliberate damage to an answer, used to show that the checks can fail.
enum class Corruption { kNone, kDropHit, kSpuriousHit, kWrongCount, kOutOfOrder };

/// Parses "none", "drop", "spurious", "count" or "order".
bool ParseCorruption(std::string_view name, Corruption* out);

/// Applies `corruption` to `hits` of `read`; a no-op where the answer has
/// too few hits for that kind of damage.
void Corrupt(Corruption corruption, const std::vector<bwtk::DnaCode>& text,
             const Read& read, int32_t k, std::vector<bwtk::Occurrence>* hits);

class Checker {
 public:
  Checker(const std::vector<bwtk::DnaCode>* text, int32_t k)
      : text_(text), k_(k) {}

  /// Property checks that hold for every answer: each hit's recomputed
  /// distance equals its count and is <= k, positions are in range and
  /// strictly increasing, and a read with at most k substitutions reports
  /// its true origin. Returns "" when the answer passes.
  std::string Properties(const Read& read,
                         const std::vector<bwtk::Occurrence>& hits) const;

  /// Properties plus exact equality with the oracle's hit list.
  std::string AgainstOracle(const Read& read,
                            const std::vector<bwtk::Occurrence>& hits,
                            const std::vector<bwtk::Occurrence>& oracle) const;

 private:
  const std::vector<bwtk::DnaCode>* text_;
  int32_t k_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
