#include "overlay/link_state.h"

#include <utility>

#include "snapshot/codec.h"

namespace ronpath {
namespace {

// Returned for reads of pairs outside the neighbor graph: an entry no
// probe has reported yet.
const LinkMetrics kPristine{};

}  // namespace

LinkStateTable::LinkStateTable(std::size_t n_nodes)
    : LinkStateTable(NeighborSet::full_mesh(n_nodes)) {}

LinkStateTable::LinkStateTable(NeighborSet neighbors)
    : nbrs_(std::move(neighbors)),
      entries_(nbrs_.edge_count()),
      est_cnt_(nbrs_.size(), 0),
      up_cnt_(nbrs_.size(), 0) {}

void LinkStateTable::publish(NodeId from, NodeId to, const LinkMetrics& metrics) {
  LinkMetrics& slot = entries_[nbrs_.edge_index(from, to)];
  // Diff the incident counters for both endpoints.
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
  slot = metrics;
}

const LinkMetrics& LinkStateTable::pristine() { return kPristine; }

const LinkMetrics& LinkStateTable::get(NodeId from, NodeId to) const {
  if (!nbrs_.adjacent(from, to)) return kPristine;
  return entries_[nbrs_.edge_index(from, to)];
}

void LinkStateTable::for_each_entry(
    const std::function<void(NodeId, NodeId, const LinkMetrics&)>& fn) const {
  std::size_t i = 0;
  for (NodeId from = 0; from < size(); ++from) {
    for (const NodeId to : nbrs_.neighbors(from)) fn(from, to, entries_[i++]);
  }
}

void LinkStateTable::recount() {
  est_cnt_.assign(size(), 0);
  up_cnt_.assign(size(), 0);
  for_each_entry([&](NodeId from, NodeId to, const LinkMetrics& m) {
    if (m.samples == 0) return;
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
  std::vector<std::uint32_t> est(size(), 0);
  std::vector<std::uint32_t> up(size(), 0);
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
    if (m.samples > 0) {
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
