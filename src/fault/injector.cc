#include "fault/injector.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

namespace ronpath {
namespace {

void require_site(NodeId id, std::size_t n, const char* what) {
  if (id >= n) {
    throw std::runtime_error(std::string("fault schedule: ") + what + " id " +
                             std::to_string(id) + " outside topology of " + std::to_string(n) +
                             " sites");
  }
}

}  // namespace

FaultInjector::FaultInjector(const FaultSchedule& schedule, const Topology& topology,
                             Duration horizon)
    : schedule_(schedule) {
  const std::size_t n = topology.size();
  std::map<std::size_t, Windows> component_windows;  // faulted ids only
  blackhole_windows_.resize(n);
  lsa_windows_.resize(n);
  crash_windows_.resize(n);
  const TimePoint end_of_time = TimePoint::epoch() + horizon;

  for (const FaultSpec& f : schedule.faults()) {
    // Occurrence times: one-shot, or periodic up to the horizon.
    std::vector<TimePoint> starts;
    if (f.periodic()) {
      for (TimePoint s = f.start; s < end_of_time; s += f.period) starts.push_back(s);
    } else {
      starts.push_back(f.start);
    }

    // Component set / node set of the spec.
    std::vector<std::size_t> components;
    std::vector<Windows>* node_table = nullptr;
    switch (f.kind) {
      case FaultKind::kComponentBlackout: {
        if (f.scope == FaultScope::kLink) {
          require_site(f.link_src, n, "link endpoint");
          require_site(f.link_dst, n, "link endpoint");
          if (f.link_src == f.link_dst) {
            throw std::runtime_error("fault schedule: link " + std::to_string(f.link_src) +
                                     "->" + std::to_string(f.link_dst) +
                                     " joins a site to itself");
          }
          components.push_back(topology.core_index(f.link_src, f.link_dst));
        } else {
          for (NodeId site : f.sites) {
            require_site(site, n, "site");
            const bool access =
                f.scope == FaultScope::kSiteAll || f.scope == FaultScope::kSiteAccess;
            const bool provider =
                f.scope == FaultScope::kSiteAll || f.scope == FaultScope::kSiteProvider;
            if (access) {
              components.push_back(topology.site_index(site, SiteComp::kUp));
              components.push_back(topology.site_index(site, SiteComp::kDown));
            }
            if (provider) {
              components.push_back(topology.site_index(site, SiteComp::kProvOut));
              components.push_back(topology.site_index(site, SiteComp::kProvIn));
            }
          }
        }
        break;
      }
      case FaultKind::kProbeBlackhole: node_table = &blackhole_windows_; break;
      case FaultKind::kLsaLoss: node_table = &lsa_windows_; break;
      case FaultKind::kCrash: node_table = &crash_windows_; break;
    }

    for (TimePoint s : starts) {
      for (std::size_t ci : components) add_window(component_windows[ci], s, f.duration);
      if (node_table) {
        for (NodeId node : f.sites) {
          require_site(node, n, "node");
          add_window((*node_table)[node], s, f.duration);
        }
      }
    }
  }

  for (auto& [id, windows] : component_windows) {
    component_ids_.push_back(id);
    component_windows_.push_back(std::move(windows));
  }
  merged_window_count_ += finalize(component_windows_);
  merged_window_count_ += finalize(blackhole_windows_);
  merged_window_count_ += finalize(lsa_windows_);
  merged_window_count_ += finalize(crash_windows_);
}

void FaultInjector::add_window(Windows& w, TimePoint start, Duration dur) {
  w.push_back({start, start + dur});
}

std::int64_t FaultInjector::finalize(std::vector<Windows>& table) {
  std::int64_t folded = 0;
  for (Windows& w : table) {
    std::sort(w.begin(), w.end(),
              [](const Window& a, const Window& b) { return a.start < b.start; });
    Windows merged;
    for (const Window& win : w) {
      if (!merged.empty() && win.start <= merged.back().end) {
        merged.back().end = std::max(merged.back().end, win.end);
        ++folded;
      } else {
        merged.push_back(win);
      }
    }
    w = std::move(merged);
  }
  return folded;
}

bool FaultInjector::covered(const Windows& w, TimePoint t) {
  if (w.empty()) return false;
  auto it = std::upper_bound(w.begin(), w.end(), t,
                             [](TimePoint v, const Window& win) { return v < win.start; });
  if (it == w.begin()) return false;
  --it;
  return it->end > t;
}

bool FaultInjector::component_down(std::size_t component, TimePoint t) const {
  const auto it = std::lower_bound(component_ids_.begin(), component_ids_.end(), component);
  return it != component_ids_.end() && *it == component &&
         covered(component_windows_[static_cast<std::size_t>(it - component_ids_.begin())], t);
}

bool FaultInjector::probe_blackhole(NodeId node, TimePoint t) const {
  return node < blackhole_windows_.size() && covered(blackhole_windows_[node], t);
}

bool FaultInjector::lsa_suppressed(NodeId node, TimePoint t) const {
  return node < lsa_windows_.size() && covered(lsa_windows_[node], t);
}

bool FaultInjector::node_crashed(NodeId node, TimePoint t) const {
  return node < crash_windows_.size() && covered(crash_windows_[node], t);
}

std::size_t FaultInjector::faulted_component_count() const { return component_ids_.size(); }

}  // namespace ronpath
