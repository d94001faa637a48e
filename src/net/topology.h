// Testbed topology: sites, access-link classes, and geography.
//
// The underlay decomposes every one-way overlay path into components:
//
//   direct   src->dst      : up(src), prov_out(src), core(src,dst),
//                            prov_in(dst), down(dst)
//   indirect src->via->dst : up(src), prov_out(src), core(src,via),
//                            prov_in(via), down(via), up(via),
//                            prov_out(via), core(via,dst), prov_in(dst),
//                            down(dst)
//
// Per-site components - the access link (up/down) and the transit
// provider's ingress/egress (prov_in/prov_out) - are shared between the
// direct path and every alternate path from/to that site. This is the
// structural source of the correlated losses the paper measures: Section
// 2.4 observes that failures concentrate near the network edge and in
// shared provider infrastructure, where no alternate overlay path can
// route around them.
//
// Core segments model the wide-area portion between two sites' providers
// and are distinct per ordered site pair, so one-hop alternates have
// largely independent middles.

#ifndef RONPATH_NET_TOPOLOGY_H_
#define RONPATH_NET_TOPOLOGY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/ids.h"
#include "util/time.h"

namespace ronpath {

// Access technology / site category, following Table 1's descriptions.
enum class LinkClass : std::uint8_t {
  kUniversityI2,   // US university on the Internet2 backbone (fast, clean)
  kUniversity,     // other university data-center connectivity
  kLargeIsp,       // large US ISP POP (GBLX-*, AT&T)
  kSmallIsp,       // small/medium ISP
  kCompany,        // corporate connectivity
  kCableDsl,       // residential cable modem or DSL line
  kIntlUniversity, // university outside North America
  kIntlIsp,        // ISP outside North America
};

[[nodiscard]] std::string_view to_string(LinkClass c);

// Per-site component kinds: access-link directions plus the transit
// provider's egress (towards the core) and ingress (from the core).
enum class SiteComp : std::uint8_t { kUp = 0, kDown = 1, kProvOut = 2, kProvIn = 3 };
inline constexpr std::size_t kSiteCompCount = 4;

// Back-compat alias for the access directions.
using AccessDir = SiteComp;

struct Site {
  std::string name;
  std::string location;
  LinkClass link_class = LinkClass::kSmallIsp;
  // Geographic coordinates, degrees; used for propagation delay.
  double lat_deg = 0.0;
  double lon_deg = 0.0;
  // Part of the 17-node 2002 testbed subset (bold hosts in Table 1).
  bool in_2002_testbed = false;
};

// Identifies one loss/latency component of the underlay. Site components
// are per (site, SiteComp); core components per ordered (src_site,
// dst_site) pair.
struct ComponentId {
  enum class Kind : std::uint8_t { kSite, kCore } kind = Kind::kSite;
  NodeId a = kInvalidNode;  // site, or source site (core)
  NodeId b = kInvalidNode;  // SiteComp value, or dest site (core)

  [[nodiscard]] constexpr SiteComp site_comp() const { return static_cast<SiteComp>(b); }
  [[nodiscard]] constexpr bool is_provider() const {
    return kind == Kind::kSite &&
           (site_comp() == SiteComp::kProvOut || site_comp() == SiteComp::kProvIn);
  }

  friend constexpr bool operator==(const ComponentId&, const ComponentId&) = default;
};

class Topology {
 public:
  explicit Topology(std::vector<Site> sites);

  [[nodiscard]] std::size_t size() const { return sites_.size(); }
  [[nodiscard]] const Site& site(NodeId id) const { return sites_[id]; }
  [[nodiscard]] const std::vector<Site>& sites() const { return sites_; }
  [[nodiscard]] std::optional<NodeId> find(std::string_view name) const;

  // One-way great-circle propagation delay between two sites, including a
  // path-stretch factor for non-geodesic fiber routing.
  [[nodiscard]] Duration propagation(NodeId a, NodeId b) const;

  // Component enumeration. Site components are numbered first
  // (kSiteCompCount per site), then core components (N*(N-1) ordered
  // pairs).
  [[nodiscard]] std::size_t component_count() const;
  [[nodiscard]] std::size_t site_index(NodeId site, SiteComp comp) const;
  // Back-compat spelling for access links.
  [[nodiscard]] std::size_t access_index(NodeId site, AccessDir dir) const {
    return site_index(site, dir);
  }
  [[nodiscard]] std::size_t core_index(NodeId src, NodeId dst) const;
  [[nodiscard]] ComponentId component(std::size_t index) const;

  // The ordered list of component indices a packet traverses on `path`,
  // paired with which site's access class governs each component.
  struct Hop {
    std::size_t component;
    // Site whose parameters drive this component (access: the site; core:
    // the source site of the segment).
    NodeId param_site;
    // Application-level forwarding turn-around happens after this hop
    // (set on each intermediate's down access component).
    bool forward_after = false;
  };
  [[nodiscard]] std::vector<Hop> hops(const PathSpec& path) const;

  // Most components a path can traverse (one relay: two legs of five).
  static constexpr std::size_t kMaxHops = 10;
  // Allocation-free variant for the packet hot path: writes up to kMaxHops
  // entries into `out` and returns the count.
  std::size_t hops_into(const PathSpec& path, Hop* out) const;

 private:
  std::vector<Site> sites_;
};

}  // namespace ronpath

#endif  // RONPATH_NET_TOPOLOGY_H_
