#include "net/topology.h"

#include <cassert>
#include <cmath>

namespace ronpath {
namespace {

constexpr double kEarthRadiusKm = 6371.0;
// Light in fiber is ~2/3 c; real paths are not geodesics. The combined
// factor maps great-circle km to one-way propagation; 1 ms per ~100 km.
constexpr double kFiberKmPerMs = 113.0;
// Fiber routes detour relative to the great circle.
constexpr double kPathStretch = 1.12;
// Router/switch floor so co-located sites still see sub-ms, nonzero delay.
constexpr double kFloorMs = 0.2;

double deg2rad(double d) { return d * M_PI / 180.0; }

double great_circle_km(const Site& a, const Site& b) {
  const double phi1 = deg2rad(a.lat_deg);
  const double phi2 = deg2rad(b.lat_deg);
  const double dphi = deg2rad(b.lat_deg - a.lat_deg);
  const double dlam = deg2rad(b.lon_deg - a.lon_deg);
  const double h = std::sin(dphi / 2) * std::sin(dphi / 2) +
                   std::cos(phi1) * std::cos(phi2) * std::sin(dlam / 2) * std::sin(dlam / 2);
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(h)));
}

}  // namespace

std::string_view to_string(LinkClass c) {
  switch (c) {
    case LinkClass::kUniversityI2: return "us-university-i2";
    case LinkClass::kUniversity: return "us-university";
    case LinkClass::kLargeIsp: return "us-large-isp";
    case LinkClass::kSmallIsp: return "us-small-isp";
    case LinkClass::kCompany: return "us-company";
    case LinkClass::kCableDsl: return "us-cable-dsl";
    case LinkClass::kIntlUniversity: return "intl-university";
    case LinkClass::kIntlIsp: return "intl-isp";
  }
  return "?";
}

Topology::Topology(std::vector<Site> sites) : sites_(std::move(sites)) {
  assert(!sites_.empty());
  assert(sites_.size() < kDirectVia);
}

std::optional<NodeId> Topology::find(std::string_view name) const {
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    if (sites_[i].name == name) return static_cast<NodeId>(i);
  }
  return std::nullopt;
}

Duration Topology::propagation(NodeId a, NodeId b) const {
  assert(a < sites_.size() && b < sites_.size());
  if (a == b) return Duration::from_millis_f(kFloorMs);
  const double km = great_circle_km(sites_[a], sites_[b]);
  const double ms = kFloorMs + km * kPathStretch / kFiberKmPerMs;
  return Duration::from_millis_f(ms);
}

std::size_t Topology::component_count() const {
  const std::size_t n = sites_.size();
  return kSiteCompCount * n + n * (n - 1);
}

std::size_t Topology::site_index(NodeId site, SiteComp comp) const {
  assert(site < sites_.size());
  return kSiteCompCount * static_cast<std::size_t>(site) + static_cast<std::size_t>(comp);
}

std::size_t Topology::core_index(NodeId src, NodeId dst) const {
  const std::size_t n = sites_.size();
  assert(src < n && dst < n && src != dst);
  // Dense ordered-pair index, skipping the diagonal.
  const std::size_t row = static_cast<std::size_t>(src);
  const std::size_t col = static_cast<std::size_t>(dst);
  return kSiteCompCount * n + row * (n - 1) + (col < row ? col : col - 1);
}

ComponentId Topology::component(std::size_t index) const {
  const std::size_t n = sites_.size();
  if (index < kSiteCompCount * n) {
    return ComponentId{ComponentId::Kind::kSite,
                       static_cast<NodeId>(index / kSiteCompCount),
                       static_cast<NodeId>(index % kSiteCompCount)};
  }
  const std::size_t pair = index - kSiteCompCount * n;
  const std::size_t row = pair / (n - 1);
  std::size_t col = pair % (n - 1);
  if (col >= row) ++col;
  return ComponentId{ComponentId::Kind::kCore, static_cast<NodeId>(row),
                     static_cast<NodeId>(col)};
}

std::size_t Topology::hops_into(const PathSpec& path, Hop* out) const {
  assert(path.src < sites_.size() && path.dst < sites_.size());
  assert(path.src != path.dst);
  Hop* w = out;
  // One overlay leg: egress at `from` (up, provider out), the core
  // segment, ingress at `to` (provider in, down). `forwarder`: the
  // ingress terminates at an intermediate that must turn the packet
  // around at application level.
  auto leg = [&](NodeId from, NodeId to, bool forwarder) {
    *w++ = {site_index(from, SiteComp::kUp), from, false};
    *w++ = {site_index(from, SiteComp::kProvOut), from, false};
    *w++ = {core_index(from, to), from, false};
    *w++ = {site_index(to, SiteComp::kProvIn), to, false};
    *w++ = {site_index(to, SiteComp::kDown), to, forwarder};
  };

  if (path.is_direct()) {
    leg(path.src, path.dst, false);
  } else {
    assert(path.via < sites_.size());
    assert(path.via != path.src && path.via != path.dst);
    leg(path.src, path.via, true);
    leg(path.via, path.dst, false);
  }
  return static_cast<std::size_t>(w - out);
}

std::vector<Topology::Hop> Topology::hops(const PathSpec& path) const {
  Hop buf[kMaxHops];
  const std::size_t n = hops_into(path, buf);
  return std::vector<Hop>(buf, buf + n);
}

}  // namespace ronpath
