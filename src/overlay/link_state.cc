#include "overlay/link_state.h"

#include <cassert>

#include "snapshot/codec.h"

namespace ronpath {
namespace {

// Returned for reads of pairs outside the sparse neighbor graph: a
// never-published entry, exactly what the dense table holds for a pair
// no probe has reported yet.
const LinkMetrics kPristine{};

}  // namespace

LinkStateTable::LinkStateTable(std::size_t n_nodes)
    : n_(n_nodes),
      entries_(n_ * n_),
      est_cnt_(n_, 0),
      up_cnt_(n_, 0) {}

LinkStateTable::LinkStateTable(std::size_t n_nodes, const NeighborSet* neighbors)
    : n_(n_nodes),
      nbrs_(neighbors != nullptr && !neighbors->full() ? neighbors : nullptr),
      entries_(nbrs_ != nullptr ? nbrs_->edge_count() : n_ * n_),
      est_cnt_(n_, 0),
      up_cnt_(n_, 0) {
  assert(neighbors == nullptr || neighbors->size() == n_);
}

std::size_t LinkStateTable::index(NodeId from, NodeId to) const {
  assert(from < n_ && to < n_);
  if (nbrs_ != nullptr) return nbrs_->edge_index(from, to);
  return static_cast<std::size_t>(from) * n_ + to;
}

void LinkStateTable::publish(NodeId from, NodeId to, const LinkMetrics& metrics) {
  assert(nbrs_ == nullptr || nbrs_->adjacent(from, to));
  LinkMetrics& slot = entries_[index(from, to)];
  if (from != to) {
    // Diff the incident counters for both endpoints (diagonal entries
    // are ignored by node_seems_up, so they never touch the counters).
    const bool old_est = slot.samples > 0;
    const bool old_up = old_est && !slot.down;
    const bool new_est = metrics.samples > 0;
    const bool new_up = new_est && !metrics.down;
    if (old_est != new_est) {
      const std::uint32_t delta = new_est ? 1u : static_cast<std::uint32_t>(-1);
      est_cnt_[from] += delta;
      est_cnt_[to] += delta;
    }
    if (old_up != new_up) {
      const std::uint32_t delta = new_up ? 1u : static_cast<std::uint32_t>(-1);
      up_cnt_[from] += delta;
      up_cnt_[to] += delta;
    }
  }
  slot = metrics;
}

const LinkMetrics& LinkStateTable::pristine() { return kPristine; }

const LinkMetrics& LinkStateTable::get(NodeId from, NodeId to) const {
  if (nbrs_ != nullptr && !nbrs_->adjacent(from, to)) return kPristine;
  return entries_[index(from, to)];
}

void LinkStateTable::for_each_entry(
    const std::function<void(NodeId, NodeId, const LinkMetrics&)>& fn) const {
  if (nbrs_ == nullptr) {
    std::size_t i = 0;
    for (NodeId from = 0; from < n_; ++from) {
      for (NodeId to = 0; to < n_; ++to, ++i) fn(from, to, entries_[i]);
    }
    return;
  }
  std::size_t i = 0;
  for (NodeId from = 0; from < n_; ++from) {
    for (const NodeId to : nbrs_->neighbors(from)) fn(from, to, entries_[i++]);
  }
}

void LinkStateTable::recount() {
  est_cnt_.assign(n_, 0);
  up_cnt_.assign(n_, 0);
  for_each_entry([&](NodeId from, NodeId to, const LinkMetrics& m) {
    if (m.samples == 0 || from == to) return;
    ++est_cnt_[from];
    ++est_cnt_[to];
    if (!m.down) {
      ++up_cnt_[from];
      ++up_cnt_[to];
    }
  });
}

void LinkStateTable::save_state(snap::Encoder& e) const {
  e.tag("LTAB");
  e.u64(entries_.size());
  for (const LinkMetrics& m : entries_) {
    e.f64(m.loss);
    e.duration(m.latency);
    e.b(m.down);
    e.b(m.has_latency);
    e.u64(m.samples);
    e.time(m.published);
    e.u32(m.stride);
  }
}

void LinkStateTable::restore_state(snap::Decoder& d) {
  d.expect_tag("LTAB");
  const std::uint64_t n = d.u64();
  if (n != entries_.size()) {
    throw snap::SnapshotError("snapshot: link-state table size mismatch (snapshot has " +
                              std::to_string(n) + " entries, table has " +
                              std::to_string(entries_.size()) + ")");
  }
  for (LinkMetrics& m : entries_) {
    m.loss = d.f64();
    m.latency = d.duration();
    m.down = d.b();
    m.has_latency = d.b();
    m.samples = d.u64();
    m.published = d.time();
    m.stride = d.u32();
    if (m.stride == 0) {
      throw snap::SnapshotError("snapshot: link-state entry with zero stride");
    }
  }
  recount();
}

void LinkStateTable::check_invariants(TimePoint now, std::vector<std::string>& out) const {
  std::vector<std::uint32_t> est(n_, 0);
  std::vector<std::uint32_t> up(n_, 0);
  for_each_entry([&](NodeId from, NodeId to, const LinkMetrics& m) {
    const std::string who =
        "link-state entry " + std::to_string(from) + "->" + std::to_string(to);
    if (!(m.loss >= 0.0 && m.loss <= 1.0)) out.push_back(who + ": loss outside [0,1]");
    if (m.published > now) out.push_back(who + ": published in the future");
    if (m.has_latency != (m.latency != Duration::max())) {
      out.push_back(who + ": latency sentinel inconsistent with has_latency");
    }
    if (m.has_latency &&
        (m.latency < Duration::zero() || m.latency >= Duration::days(100'000))) {
      out.push_back(who + ": latency in the saturation dead zone");
    }
    if (m.samples == 0 && m.published != TimePoint::epoch()) {
      out.push_back(who + ": published without a single probe sample");
    }
    if (m.stride == 0) out.push_back(who + ": zero rotation stride");
    if (m.samples > 0 && from != to) {
      ++est[from];
      ++est[to];
      if (!m.down) {
        ++up[from];
        ++up[to];
      }
    }
  });
  if (est != est_cnt_ || up != up_cnt_) {
    out.push_back("link-state: node_seems_up counters disagree with entry scan");
  }
}

}  // namespace ronpath
