#include "overlay/router.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "overlay/path_engine.h"
#include "snapshot/codec.h"

namespace ronpath {
namespace {

// A stored incumbent is a path from `self` to its destination key that
// is direct (`via` is kDirectVia) or goes through one relay that is a
// node other than the two endpoints. Shared by restore_state (on the raw
// fields) and check_invariants.
bool incumbent_ok(std::uint64_t src, std::uint64_t dst, std::uint64_t via, NodeId self,
                  std::uint64_t key, std::size_t n) {
  return src == self && dst == key &&
         (via == kDirectVia || (via < n && via != src && via != dst));
}

}  // namespace

double link_loss(const LinkMetrics& m, const RouterConfig& cfg, TimePoint now) {
  // Expired entries degrade to "unknown", not to their last value: a
  // stale "0.1% loss" (or a stale down flag) is exactly the garbage the
  // degradation policy exists to stop routing on.
  if (entry_expired(m, cfg, now)) return cfg.unknown_loss;
  // Down links lose everything for selection purposes.
  if (m.down) return 1.0;
  return m.loss;
}

Duration link_latency(const LinkMetrics& m, const RouterConfig& cfg, TimePoint now) {
  if (entry_expired(m, cfg, now)) return Duration::max();
  if (m.down) return cfg.down_penalty;
  return m.latency;  // Duration::max() when never measured
}

bool entry_expired(const LinkMetrics& m, const RouterConfig& cfg, TimePoint now) {
  if (cfg.entry_ttl <= Duration::zero()) return false;
  if (m.samples == 0) return true;  // never published: unknown, not optimistic
  // Rotation-capped publishers refresh every `stride` intervals; scale
  // the TTL so a slower cadence is not misread as staleness. Entries
  // published every round (stride 1, the full mesh's cadence) are untouched.
  const Duration ttl =
      m.stride > 1 ? cfg.entry_ttl * static_cast<std::int64_t>(m.stride) : cfg.entry_ttl;
  return now - m.published > ttl;
}

double path_loss_estimate(const LinkStateTable& table, const PathSpec& path,
                          const RouterConfig& cfg, TimePoint now) {
  if (path.is_direct()) return link_loss(table.get(path.src, path.dst), cfg, now);
  const double l1 = link_loss(table.get(path.src, path.via), cfg, now);
  const double l2 = link_loss(table.get(path.via, path.dst), cfg, now);
  return 1.0 - (1.0 - l1) * (1.0 - l2);
}

Duration path_latency_estimate(const LinkStateTable& table, const PathSpec& path,
                               const RouterConfig& cfg, TimePoint now) {
  using D = Duration;
  if (path.is_direct()) return link_latency(table.get(path.src, path.dst), cfg, now);
  const Duration d1 = link_latency(table.get(path.src, path.via), cfg, now);
  const Duration d2 = link_latency(table.get(path.via, path.dst), cfg, now);
  return D::saturating_add(D::saturating_add(d1, d2), cfg.forward_delay);
}

bool path_down(const LinkStateTable& table, const PathSpec& path) {
  if (path.is_direct()) return table.get(path.src, path.dst).down;
  return table.get(path.src, path.via).down || table.get(path.via, path.dst).down;
}

Router::Router(NodeId self, const LinkStateTable& table, RouterConfig cfg)
    : self_(self),
      table_(table),
      cfg_(cfg),
      engine_(std::make_unique<PathEngine>(table_, cfg_)) {}

Router::~Router() = default;

Router::DstState& Router::dst_state(NodeId dst) {
  const auto it = std::lower_bound(
      dst_states_.begin(), dst_states_.end(), dst,
      [](const auto& e, NodeId key) { return e.first < key; });
  if (it != dst_states_.end() && it->first == dst) return it->second;
  return dst_states_.insert(it, {dst, DstState{}})->second;
}

const Router::DstState* Router::find_dst(NodeId dst) const {
  const auto it = std::lower_bound(
      dst_states_.begin(), dst_states_.end(), dst,
      [](const auto& e, NodeId key) { return e.first < key; });
  return it != dst_states_.end() && it->first == dst ? &it->second : nullptr;
}

const Router::Holddown* Router::find_holddown(std::size_t key) const {
  const auto it = std::lower_bound(
      holddown_.begin(), holddown_.end(), key,
      [](const auto& e, std::size_t k) { return e.first < k; });
  return it != holddown_.end() && it->first == key ? &it->second : nullptr;
}

std::int64_t Router::loss_switches(NodeId dst) const {
  const DstState* st = find_dst(dst);
  return st != nullptr ? st->loss_switches : 0;
}

std::int64_t Router::lat_switches(NodeId dst) const {
  const DstState* st = find_dst(dst);
  return st != nullptr ? st->lat_switches : 0;
}

std::vector<NodeId> Router::live_intermediates(NodeId dst) const {
  return engine_->live_relays(self_, dst);
}

bool Router::view_degraded(TimePoint now) const {
  if (cfg_.entry_ttl <= Duration::zero()) return false;
  // Only the neighbor row is ever refreshed over a capped graph;
  // counting the silent rest of the mesh would read as permanently
  // degraded at any useful fanout.
  const NeighborSet& g = table_.neighbors();
  const std::size_t total = g.degree(self_);
  std::size_t expired = 0;
  for (std::size_t e = g.row_begin(self_); e < g.row_begin(self_) + total; ++e) {
    if (entry_expired(table_.at_edge(e), cfg_, now)) ++expired;
  }
  return total > 0 &&
         static_cast<double>(expired) > cfg_.degraded_view_threshold * static_cast<double>(total);
}

std::size_t Router::holddown_key(NodeId dst, NodeId via) const {
  // via slot n encodes the direct path (never filtered, still tracked).
  const std::size_t n = table_.size();
  const std::size_t slot = via == kDirectVia ? n : via;
  return static_cast<std::size_t>(dst) * (n + 1) + slot;
}

bool Router::held_down(NodeId dst, NodeId via, TimePoint now) const {
  if (cfg_.holddown_base <= Duration::zero() || holddown_.empty()) return false;
  const Holddown* h = find_holddown(holddown_key(dst, via));
  return h != nullptr && h->until > now;
}

void Router::register_down(NodeId dst, const PathSpec& path, TimePoint now) {
  if (cfg_.holddown_base <= Duration::zero()) return;
  const std::size_t key = holddown_key(dst, path.via);
  const auto it = std::lower_bound(
      holddown_.begin(), holddown_.end(), key,
      [](const auto& e, std::size_t k) { return e.first < k; });
  Holddown& h = (it != holddown_.end() && it->first == key)
                    ? it->second
                    : holddown_.insert(it, {key, Holddown{}})->second;
  if (h.strikes > 0 && now - h.last_down > cfg_.holddown_reset) h.strikes = 0;
  h.last_down = now;
  if (now < h.until) return;  // already serving a hold-down; don't escalate per query
  h.strikes = std::min(h.strikes + 1, 20);
  Duration ban = cfg_.holddown_base;
  for (int i = 1; i < h.strikes && ban < cfg_.holddown_max; ++i) {
    ban = Duration::saturating_add(ban, ban);
  }
  if (ban > cfg_.holddown_max) ban = cfg_.holddown_max;
  h.until = now + ban;
}

void Router::count_switch(std::int64_t& counter, const std::optional<PathSpec>& inc,
                          const PathSpec& chosen) {
  if (inc && *inc != chosen) ++counter;
}

std::span<const NodeId> Router::held_vias(NodeId dst, TimePoint now) {
  held_scratch_.clear();
  if (cfg_.holddown_base <= Duration::zero()) return held_scratch_;
  // Keys dst * (n+1) + slot are sorted, so dst's relay slots [0, n) are
  // one contiguous run; slot n (the direct path) is never a relay.
  const std::size_t first = holddown_key(dst, 0);
  const std::size_t last = first + table_.size();
  auto it = std::lower_bound(holddown_.begin(), holddown_.end(), first,
                             [](const auto& e, std::size_t k) { return e.first < k; });
  for (; it != holddown_.end() && it->first < last; ++it) {
    if (it->second.until > now) held_scratch_.push_back(static_cast<NodeId>(it->first - first));
  }
  return held_scratch_;
}

PathChoice Router::evaluate_loss(NodeId dst, DstState& st, TimePoint now) {
  const PathSpec direct{self_, dst, kDirectVia};
  std::optional<PathSpec>& inc = st.loss_path;

  // Degraded view: the node's own probing state is mostly stale; the
  // composed estimates below would be fiction. Fall back to direct.
  if (view_degraded(now)) {
    count_switch(st.loss_switches, inc, direct);
    inc = direct;
    return PathChoice{direct, path_loss_estimate(table_, direct, cfg_, now),
                      path_latency_estimate(table_, direct, cfg_, now)};
  }

  // Hold-down bookkeeping: an incumbent whose link went down both loses
  // incumbency and serves a ban before re-selection.
  if (inc && !inc->is_direct() && path_down(table_, *inc)) {
    register_down(dst, *inc, now);
  }

  // Candidate scan via the path engine: one ascending pass over
  // N(self) u N(dst) (every node over the full mesh) with the historical
  // loop's composition and tie-break expressions.
  const RelayFilter filter{.endpoint_rows = true, .excluded = held_vias(dst, now)};
  const EngineChoice cand = engine_->best_loss(self_, dst, now, filter);
  PathChoice best{PathSpec{self_, dst, cand.via}, cand.loss, Duration::zero()};

  // Hysteresis: keep the incumbent while it is close to the best.
  if (inc && !held_down(dst, inc->via, now)) {
    const double inc_loss = path_loss_estimate(table_, *inc, cfg_, now);
    if (!path_down(table_, *inc) && inc_loss <= best.loss + cfg_.loss_abs_margin) {
      best = PathChoice{*inc, inc_loss, Duration::zero()};
    }
  }
  count_switch(st.loss_switches, inc, best.path);
  inc = best.path;
  best.latency = path_latency_estimate(table_, best.path, cfg_, now);
  return best;
}

PathChoice Router::evaluate_lat(NodeId dst, DstState& st, TimePoint now) {
  const PathSpec direct{self_, dst, kDirectVia};
  std::optional<PathSpec>& inc = st.lat_path;

  if (view_degraded(now)) {
    count_switch(st.lat_switches, inc, direct);
    inc = direct;
    return PathChoice{direct, path_loss_estimate(table_, direct, cfg_, now),
                      path_latency_estimate(table_, direct, cfg_, now)};
  }

  if (inc && !inc->is_direct() && path_down(table_, *inc)) {
    register_down(dst, *inc, now);
  }

  const RelayFilter filter{.endpoint_rows = true, .excluded = held_vias(dst, now)};
  const EngineChoice cand = engine_->best_latency(self_, dst, now, filter);
  PathChoice best{PathSpec{self_, dst, cand.via}, 0.0, cand.latency};

  if (inc && best.latency != Duration::max() && !held_down(dst, inc->via, now)) {
    const Duration inc_lat = path_latency_estimate(table_, *inc, cfg_, now);
    if (!path_down(table_, *inc) && inc_lat != Duration::max()) {
      const auto margin_ns = static_cast<std::int64_t>(
          static_cast<double>(inc_lat.count_nanos()) * cfg_.lat_rel_margin);
      const Duration needed = inc_lat - std::max(cfg_.lat_abs_margin, Duration::nanos(margin_ns));
      if (best.latency >= needed) {
        best = PathChoice{*inc, 0.0, inc_lat};
      }
    }
  }
  count_switch(st.lat_switches, inc, best.path);
  inc = best.path;
  best.loss = path_loss_estimate(table_, best.path, cfg_, now);
  return best;
}

PathChoice Router::best_loss_path(NodeId dst, TimePoint now) {
  assert(dst < table_.size() && dst != self_);
  return evaluate_loss(dst, dst_state(dst), now);
}

PathChoice Router::best_lat_path(NodeId dst, TimePoint now) {
  assert(dst < table_.size() && dst != self_);
  return evaluate_lat(dst, dst_state(dst), now);
}

void Router::save_state(snap::Encoder& e) const {
  e.tag("ROUT");
  const auto put_path = [&](const std::optional<PathSpec>& p) {
    e.b(p.has_value());
    if (p) {
      e.u64(p->src);
      e.u64(p->dst);
      e.u64(p->via);
    }
  };
  // Sorted flat maps serialize in key order: deterministic regardless
  // of the order destinations were first touched.
  e.u64(dst_states_.size());
  for (const auto& [dst, st] : dst_states_) {
    e.u64(dst);
    put_path(st.loss_path);
    put_path(st.lat_path);
    e.i64(st.loss_switches);
    e.i64(st.lat_switches);
  }
  e.u64(holddown_.size());
  for (const auto& [key, h] : holddown_) {
    e.u64(key);
    e.time(h.until);
    e.time(h.last_down);
    e.i64(h.strikes);
  }
}

void Router::restore_state(snap::Decoder& d) {
  d.expect_tag("ROUT");
  // Fields are checked as read, before narrowing to NodeId: a relay of
  // 65538 would otherwise come back as node 2.
  const auto get_path = [&](std::optional<PathSpec>& p, std::uint64_t key) {
    if (!d.b()) {
      p.reset();
      return;
    }
    const std::uint64_t src = d.u64();
    const std::uint64_t dst = d.u64();
    const std::uint64_t via = d.u64();
    if (!incumbent_ok(src, dst, via, self_, key, table_.size())) {
      throw snap::SnapshotError("snapshot: malformed router incumbent for dst " +
                                std::to_string(key));
    }
    p = PathSpec{static_cast<NodeId>(src), static_cast<NodeId>(dst), static_cast<NodeId>(via)};
  };
  const std::uint64_t n_dst = d.count(19);
  dst_states_.clear();
  dst_states_.reserve(n_dst);
  std::uint64_t prev_dst = 0;
  for (std::uint64_t i = 0; i < n_dst; ++i) {
    const std::uint64_t dst = d.u64();
    if (dst >= table_.size() || (i > 0 && dst <= prev_dst)) {
      throw snap::SnapshotError("snapshot: router destination keys corrupt or unsorted");
    }
    prev_dst = dst;
    DstState st;
    get_path(st.loss_path, dst);
    get_path(st.lat_path, dst);
    st.loss_switches = d.i64();
    st.lat_switches = d.i64();
    dst_states_.emplace_back(static_cast<NodeId>(dst), std::move(st));
  }
  const std::uint64_t n_hold = d.count(32);
  holddown_.clear();
  holddown_.reserve(n_hold);
  std::uint64_t prev_key = 0;
  for (std::uint64_t i = 0; i < n_hold; ++i) {
    const std::uint64_t key = d.u64();
    if (key >= table_.size() * (table_.size() + 1) || (i > 0 && key <= prev_key)) {
      throw snap::SnapshotError("snapshot: router hold-down keys corrupt or unsorted");
    }
    prev_key = key;
    Holddown h;
    h.until = d.time();
    h.last_down = d.time();
    h.strikes = static_cast<int>(d.i64());
    holddown_.emplace_back(static_cast<std::size_t>(key), h);
  }
}

void Router::check_invariants(TimePoint now, std::vector<std::string>& out) const {
  const std::string who = "router " + std::to_string(self_);
  const std::size_t n = table_.size();
  for (std::size_t i = 0; i < holddown_.size(); ++i) {
    const auto& [key, h] = holddown_[i];
    const std::string slot = who + " holddown[" + std::to_string(key) + "]";
    if (key >= n * (n + 1)) out.push_back(slot + ": key out of range");
    if (i > 0 && holddown_[i - 1].first >= key) {
      out.push_back(who + ": hold-down keys out of order");
    }
    // Strike monotonicity: strikes only move in [0, 20], and a live ban
    // implies at least one strike.
    if (h.strikes < 0 || h.strikes > 20) out.push_back(slot + ": strikes outside [0,20]");
    if (h.until > TimePoint::epoch() && h.strikes == 0) {
      out.push_back(slot + ": ban without a strike");
    }
    if (h.last_down > now) out.push_back(slot + ": down event in the future");
    // Bans are granted at the instant of a down event and never exceed
    // holddown_max, so `until` can outrun the *latest* down event only
    // within that bound.
    if (h.until > TimePoint::epoch() &&
        h.until - h.last_down > cfg_.holddown_max) {
      out.push_back(slot + ": ban extends past holddown_max from the last down event");
    }
  }
  for (std::size_t i = 0; i < dst_states_.size(); ++i) {
    const auto& [dst, st] = dst_states_[i];
    if (dst >= n) out.push_back(who + ": destination state key out of range");
    if (i > 0 && dst_states_[i - 1].first >= dst) {
      out.push_back(who + ": destination state keys out of order");
    }
    const auto check_path = [&](const std::optional<PathSpec>& p, const char* kind) {
      if (p && !incumbent_ok(p->src, p->dst, p->via, self_, dst, n)) {
        out.push_back(who + ": malformed " + kind + " incumbent for dst " +
                      std::to_string(dst));
      }
    };
    check_path(st.loss_path, "loss");
    check_path(st.lat_path, "latency");
    if (st.loss_switches < 0) out.push_back(who + ": negative loss switch counter");
    if (st.lat_switches < 0) out.push_back(who + ": negative latency switch counter");
  }
}

}  // namespace ronpath
