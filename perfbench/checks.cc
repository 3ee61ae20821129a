#include "checks.h"

#include <algorithm>

namespace perfbench {
namespace {

int32_t Distance(const std::vector<bwtk::DnaCode>& text, size_t position,
                 const std::vector<bwtk::DnaCode>& pattern, int32_t limit) {
  int32_t mismatches = 0;
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (text[position + i] != pattern[i] && ++mismatches > limit) break;
  }
  return mismatches;
}

std::string Describe(const Read& read) {
  return "read " + read.ascii + " (origin " + std::to_string(read.origin) +
         ", " + std::to_string(read.substitutions) + " substitutions)";
}

}  // namespace

std::vector<bwtk::Occurrence> HammingScan(
    const std::vector<bwtk::DnaCode>& text,
    const std::vector<bwtk::DnaCode>& pattern, int32_t k) {
  std::vector<bwtk::Occurrence> hits;
  if (pattern.size() > text.size()) return hits;
  for (size_t p = 0; p + pattern.size() <= text.size(); ++p) {
    const int32_t d = Distance(text, p, pattern, k);
    if (d <= k) hits.push_back({p, d});
  }
  return hits;
}

bool ParseCorruption(std::string_view name, Corruption* out) {
  if (name == "none") *out = Corruption::kNone;
  else if (name == "drop") *out = Corruption::kDropHit;
  else if (name == "spurious") *out = Corruption::kSpuriousHit;
  else if (name == "count") *out = Corruption::kWrongCount;
  else if (name == "order") *out = Corruption::kOutOfOrder;
  else return false;
  return true;
}

void Corrupt(Corruption corruption, const std::vector<bwtk::DnaCode>& text,
             const Read& read, int32_t k, std::vector<bwtk::Occurrence>* hits) {
  switch (corruption) {
    case Corruption::kNone:
      return;
    case Corruption::kDropHit:
      if (!hits->empty()) hits->pop_back();
      return;
    case Corruption::kSpuriousHit: {
      // A position past the last hit whose true distance exceeds k,
      // reported as a plausible k-mismatch hit.
      size_t p = hits->empty() ? 0 : hits->back().position + 1;
      for (; p + read.codes.size() <= text.size(); ++p) {
        if (Distance(text, p, read.codes, k) > k) {
          hits->push_back({p, k});
          return;
        }
      }
      return;
    }
    case Corruption::kWrongCount:
      if (!hits->empty()) {
        auto& hit = hits->front();
        hit.mismatches = hit.mismatches == 0 ? 1 : hit.mismatches - 1;
      }
      return;
    case Corruption::kOutOfOrder:
      if (hits->size() >= 2) std::swap((*hits)[0], (*hits)[1]);
      return;
  }
}

std::string Checker::Properties(
    const Read& read, const std::vector<bwtk::Occurrence>& hits) const {
  const size_t m = read.codes.size();
  for (size_t i = 0; i < hits.size(); ++i) {
    const auto& hit = hits[i];
    if (hit.position + m > text_->size()) {
      return "hit position " + std::to_string(hit.position) +
             " out of range for " + Describe(read);
    }
    if (i > 0 && hits[i - 1].position >= hit.position) {
      return "hits not strictly increasing at " +
             std::to_string(hit.position) + " for " + Describe(read);
    }
    const int32_t d = Distance(*text_, hit.position, read.codes, k_ + 1);
    if (d != hit.mismatches || d > k_) {
      return "hit at " + std::to_string(hit.position) + " reports " +
             std::to_string(hit.mismatches) + " mismatches, recomputed " +
             std::to_string(d) + " (k = " + std::to_string(k_) + ") for " +
             Describe(read);
    }
  }
  if (read.substitutions <= k_) {
    const bwtk::Occurrence truth{read.origin, read.substitutions};
    if (std::find(hits.begin(), hits.end(), truth) == hits.end()) {
      return "true origin missing for " + Describe(read);
    }
  }
  return "";
}

std::string Checker::AgainstOracle(
    const Read& read, const std::vector<bwtk::Occurrence>& hits,
    const std::vector<bwtk::Occurrence>& oracle) const {
  std::string failure = Properties(read, hits);
  if (!failure.empty()) return failure;
  if (hits != oracle) {
    return std::to_string(hits.size()) + " hits differ from the oracle's " +
           std::to_string(oracle.size()) + " for " + Describe(read);
  }
  return "";
}

}  // namespace perfbench
