#include "dyn/slice_journal.hpp"

#include <string>

namespace dyn {

std::vector<Mutation> SliceJournal::random_batch(
    std::mt19937_64& rng, std::size_t n, std::uint64_t delete_one_in,
    const std::function<std::uint32_t()>& node) const {
  std::vector<Mutation> batch(n);
  for (Mutation& m : batch) {
    m.node = node();
    m.key = random_key(rng);
    m.op = rng() % delete_one_in == 0 ? Op::kDelete : Op::kInsert;
  }
  return batch;
}

coop::Status SliceJournal::check_base(const cat::Tree& tree) {
  for (std::size_t v = 0; v < tree.num_nodes(); ++v) {
    for (const Key k : tree.catalog(static_cast<cat::NodeId>(v)).keys()) {
      if (k != cat::kInfinity && k >= kSliceBase) {
        return coop::Status::invalid_argument(
            "base key " + std::to_string(k) + " >= writer slice base " +
            std::to_string(kSliceBase) +
            "; the write-journal oracle needs every base key below it");
      }
    }
  }
  return coop::OkStatus();
}

SliceJournal::Collapsed SliceJournal::collapse(
    std::span<const Mutation> batch) {
  Collapsed out;
  for (const Mutation& m : batch) {
    out[{m.node, m.key}] = m.op;
  }
  return out;
}

void SliceJournal::begin(const Collapsed& batch) {
  for (const auto& [nk, op] : batch) {
    in_flight_.insert(nk);
    entries_.erase(nk);
  }
}

void SliceJournal::ack(const Collapsed& batch) {
  for (const auto& [nk, op] : batch) {
    entries_[nk] = op == Op::kInsert;
    in_flight_.erase(nk);
  }
}

JournalCheck SliceJournal::check(std::uint32_t node, Key y,
                                 Key served) const {
  if (served < y) {
    return JournalCheck::kWrong;
  }
  // The smallest key this writer holds live at `node` from y on; past
  // the slice when it holds none.
  Key want = hi();
  for (auto it = entries_.lower_bound({node, y});
       it != entries_.end() && it->first.first == node; ++it) {
    if (it->second) {
      want = it->first.second;
      break;
    }
  }
  if (served == want || (want == hi() && served >= want)) {
    return JournalCheck::kOk;
  }
  if (served > want) {
    return JournalCheck::kLost;
  }
  return in_flight_.contains({node, served}) ? JournalCheck::kOk
                                             : JournalCheck::kWrong;
}

}  // namespace dyn
