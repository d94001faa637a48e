#include "routing/hybrid.h"

#include <cassert>

#include "overlay/path_engine.h"
#include "overlay/router.h"
#include "snapshot/codec.h"

namespace ronpath {

std::string_view to_string(HybridMode mode) {
  switch (mode) {
    case HybridMode::kBestPath: return "best-path";
    case HybridMode::kAlwaysDuplicate: return "always-duplicate";
    case HybridMode::kAdaptive: return "adaptive";
  }
  return "?";
}

HybridSender::HybridSender(OverlayNetwork& overlay, HybridConfig cfg, Rng rng)
    : overlay_(overlay), cfg_(cfg), rng_(rng.fork("hybrid")) {
  alt_cfg_.indirect_loss_penalty = 0.0;  // disjointness, not preference
  // entry_ttl stays zero: the historical alternate scan trusted entries
  // forever regardless of the router's degradation policy.
  alt_engine_ = std::make_unique<PathEngine>(overlay_.table(), alt_cfg_);
}

HybridSender::~HybridSender() = default;

PathSpec HybridSender::alternate_path(NodeId src, NodeId dst, const PathSpec& primary) {
  // Best loss-estimate path whose intermediate differs from the primary's
  // (and from the direct path when the primary is direct: true one-hop
  // disjointness beyond the unavoidable shared edges). Every node is a
  // candidate, not just the endpoint rows.
  const NodeId primary_via[] = {primary.via};
  RelayFilter filter;
  if (!primary.is_direct()) filter.excluded = primary_via;
  filter.include_direct = !primary.is_direct();
  const EngineChoice cand = alt_engine_->best_loss(src, dst, TimePoint::epoch(), filter);
  if (!cand.valid) {
    // No candidate at all (tiny overlays): fall back to a random pick.
    return overlay_.route(src, dst, RouteTag::kRand);
  }
  return PathSpec{src, dst, cand.via};
}

HybridOutcome HybridSender::send(NodeId src, NodeId dst, TimePoint now) {
  assert(src != dst);
  ++packets_;

  // Epoch, not `now`: the ROADMAP's hybrid re-pin passes the send time.
  const PathChoice primary = overlay_.router(src).best_loss_path(dst, TimePoint::epoch());
  HybridOutcome out;
  out.probe.scheme = PairScheme::kLatLoss;  // closest registry label
  out.probe.probe_id = rng_.next_u64();
  out.probe.src = src;
  out.probe.dst = dst;

  CopyOutcome first;
  first.tag = RouteTag::kLoss;
  first.path = primary.path;
  first.sent = now;
  first.result = overlay_.send(primary.path, now);
  out.probe.copies.push_back(first);
  ++copies_;

  bool duplicate = false;
  switch (cfg_.mode) {
    case HybridMode::kBestPath:
      break;
    case HybridMode::kAlwaysDuplicate:
      duplicate = true;
      break;
    case HybridMode::kAdaptive: {
      duplicate = primary.loss >= cfg_.duplicate_threshold;
      if (!duplicate && cfg_.duplicate_on_down) {
        duplicate = path_down(overlay_.table(), primary.path);
      }
      break;
    }
  }

  if (duplicate) {
    CopyOutcome second;
    second.tag = RouteTag::kRand;
    second.path = alternate_path(src, dst, primary.path);
    second.sent = now;
    second.result = overlay_.send(second.path, now);
    out.probe.copies.push_back(second);
    ++copies_;
    ++duplicated_;
    out.duplicated = true;
  }
  return out;
}

double HybridSender::overhead_factor() const {
  return packets_ > 0 ? static_cast<double>(copies_) / static_cast<double>(packets_) : 1.0;
}

void HybridSender::save_state(snap::Encoder& e) const {
  e.tag("HYBR");
  snap::save_rng(e, rng_);
  e.i64(packets_);
  e.i64(copies_);
  e.i64(duplicated_);
}

void HybridSender::restore_state(snap::Decoder& d) {
  d.expect_tag("HYBR");
  snap::restore_rng(d, rng_);
  packets_ = d.i64();
  copies_ = d.i64();
  duplicated_ = d.i64();
}

void HybridSender::check_invariants(std::vector<std::string>& out) const {
  if (packets_ < 0 || copies_ < 0 || duplicated_ < 0) {
    out.push_back("hybrid sender: negative overhead counter");
    return;
  }
  // Every packet sends at least one copy; duplication adds exactly one.
  if (copies_ != packets_ + duplicated_) {
    out.push_back("hybrid sender: copies != packets + duplications");
  }
  if (duplicated_ > packets_) {
    out.push_back("hybrid sender: more duplications than packets");
  }
}

}  // namespace ronpath
