#include "mpls/tables.hpp"

#include <sstream>
#include <utility>

namespace empls::mpls {

std::string Nhlfe::to_string() const {
  std::ostringstream out;
  out << "nhlfe{" << mpls::to_string(op);
  if (op == LabelOp::kPush || op == LabelOp::kSwap) {
    out << " out_label=" << out_label;
  }
  if (out_interface == kLocalDeliver) {
    out << " -> local";
  } else {
    out << " -> if" << out_interface;
  }
  out << '}';
  return out.str();
}

std::optional<Nhlfe> FtnTable::bind(std::uint32_t fec_id, const Nhlfe& nhlfe) {
  const auto [it, inserted] = map_.try_emplace(fec_id, nhlfe);
  if (inserted) {
    return std::nullopt;
  }
  return std::exchange(it->second, nhlfe);
}

bool FtnTable::unbind(std::uint32_t fec_id) { return map_.erase(fec_id) > 0; }

std::optional<Nhlfe> FtnTable::lookup(std::uint32_t fec_id) const {
  const auto it = map_.find(fec_id);
  if (it == map_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<std::uint32_t> LabelAllocator::allocate() {
  // Scan upward from the cursor, skipping values claimed by reserve().
  while (next_ <= kMaxLabel && in_use_.contains(next_)) {
    ++next_;
  }
  if (next_ > kMaxLabel) {
    return std::nullopt;
  }
  in_use_.insert(next_);
  return next_++;
}

bool LabelAllocator::reserve(std::uint32_t label) {
  if (label < kFirstUnreservedLabel || label > kMaxLabel) {
    return false;
  }
  return in_use_.insert(label).second;
}

void LabelAllocator::release(std::uint32_t label) { in_use_.erase(label); }

}  // namespace empls::mpls
