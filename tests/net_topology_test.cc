#include "net/topology.h"

#include <gtest/gtest.h>

#include <set>

#include "core/testbed.h"

namespace ronpath {
namespace {

Topology small_topo() {
  std::vector<Site> sites(4);
  sites[0] = {"A", "Boston, MA", LinkClass::kUniversityI2, 42.36, -71.06, true};
  sites[1] = {"B", "San Diego, CA", LinkClass::kCableDsl, 32.88, -117.23, true};
  sites[2] = {"C", "London, England", LinkClass::kIntlIsp, 51.51, -0.13, false};
  sites[3] = {"D", "Chicago, IL", LinkClass::kLargeIsp, 41.88, -87.63, true};
  return Topology(std::move(sites));
}

TEST(Topology, FindByName) {
  const Topology t = small_topo();
  ASSERT_TRUE(t.find("C").has_value());
  EXPECT_EQ(*t.find("C"), 2);
  EXPECT_FALSE(t.find("nope").has_value());
}

TEST(Topology, ComponentCount) {
  const Topology t = small_topo();
  EXPECT_EQ(t.component_count(), kSiteCompCount * 4 + 4 * 3);
}

TEST(Topology, ComponentIndexBijection) {
  const Topology t = small_topo();
  std::set<std::size_t> seen;
  for (NodeId s = 0; s < 4; ++s) {
    for (auto comp : {SiteComp::kUp, SiteComp::kDown, SiteComp::kProvOut, SiteComp::kProvIn}) {
      const std::size_t idx = t.site_index(s, comp);
      EXPECT_TRUE(seen.insert(idx).second);
      const ComponentId id = t.component(idx);
      EXPECT_EQ(id.kind, ComponentId::Kind::kSite);
      EXPECT_EQ(id.a, s);
      EXPECT_EQ(id.site_comp(), comp);
    }
  }
  for (NodeId a = 0; a < 4; ++a) {
    for (NodeId b = 0; b < 4; ++b) {
      if (a == b) continue;
      const std::size_t idx = t.core_index(a, b);
      EXPECT_TRUE(seen.insert(idx).second);
      const ComponentId id = t.component(idx);
      EXPECT_EQ(id.kind, ComponentId::Kind::kCore);
      EXPECT_EQ(id.a, a);
      EXPECT_EQ(id.b, b);
    }
  }
  EXPECT_EQ(seen.size(), t.component_count());
}

TEST(Topology, IsProviderHelper) {
  const Topology t = small_topo();
  EXPECT_FALSE(t.component(t.site_index(0, SiteComp::kUp)).is_provider());
  EXPECT_FALSE(t.component(t.site_index(0, SiteComp::kDown)).is_provider());
  EXPECT_TRUE(t.component(t.site_index(0, SiteComp::kProvOut)).is_provider());
  EXPECT_TRUE(t.component(t.site_index(0, SiteComp::kProvIn)).is_provider());
  EXPECT_FALSE(t.component(t.core_index(0, 1)).is_provider());
}

TEST(Topology, PropagationSymmetricAndPositive) {
  const Topology t = small_topo();
  for (NodeId a = 0; a < 4; ++a) {
    for (NodeId b = 0; b < 4; ++b) {
      const Duration d = t.propagation(a, b);
      EXPECT_GT(d, Duration::zero());
      EXPECT_EQ(d, t.propagation(b, a));
    }
  }
}

TEST(Topology, PropagationScalesWithDistance) {
  const Topology t = small_topo();
  // Boston->Chicago is much shorter than Boston->London.
  EXPECT_LT(t.propagation(0, 3), t.propagation(0, 2));
  // Boston<->San Diego one-way in a plausible band (continental US).
  const double ms = t.propagation(0, 1).to_millis_f();
  EXPECT_GT(ms, 15.0);
  EXPECT_LT(ms, 80.0);
}

TEST(Topology, DirectHopsStructure) {
  const Topology t = small_topo();
  const auto hops = t.hops(PathSpec{0, 1, kDirectVia});
  ASSERT_EQ(hops.size(), 5u);
  EXPECT_EQ(hops[0].component, t.site_index(0, SiteComp::kUp));
  EXPECT_EQ(hops[1].component, t.site_index(0, SiteComp::kProvOut));
  EXPECT_EQ(hops[2].component, t.core_index(0, 1));
  EXPECT_EQ(hops[3].component, t.site_index(1, SiteComp::kProvIn));
  EXPECT_EQ(hops[4].component, t.site_index(1, SiteComp::kDown));
}

TEST(Topology, IndirectHopsStructure) {
  const Topology t = small_topo();
  const auto hops = t.hops(PathSpec{0, 1, 2});
  ASSERT_EQ(hops.size(), 10u);
  // Shared prefix with the direct path: src edge.
  EXPECT_EQ(hops[0].component, t.site_index(0, SiteComp::kUp));
  EXPECT_EQ(hops[1].component, t.site_index(0, SiteComp::kProvOut));
  // First leg middle, via ingress+egress, second leg middle, dst edge.
  EXPECT_EQ(hops[2].component, t.core_index(0, 2));
  EXPECT_EQ(hops[3].component, t.site_index(2, SiteComp::kProvIn));
  EXPECT_EQ(hops[4].component, t.site_index(2, SiteComp::kDown));
  EXPECT_EQ(hops[5].component, t.site_index(2, SiteComp::kUp));
  EXPECT_EQ(hops[6].component, t.site_index(2, SiteComp::kProvOut));
  EXPECT_EQ(hops[7].component, t.core_index(2, 1));
  EXPECT_EQ(hops[8].component, t.site_index(1, SiteComp::kProvIn));
  EXPECT_EQ(hops[9].component, t.site_index(1, SiteComp::kDown));
}

// The structural property behind the paper's correlated losses: direct and
// indirect paths share the src egress and dst ingress components.
TEST(Topology, DirectAndIndirectShareEdges) {
  const Topology t = small_topo();
  const auto direct = t.hops(PathSpec{0, 1, kDirectVia});
  const auto indirect = t.hops(PathSpec{0, 1, 3});
  std::set<std::size_t> d;
  for (const auto& h : direct) d.insert(h.component);
  std::size_t shared = 0;
  for (const auto& h : indirect) shared += d.count(h.component);
  EXPECT_EQ(shared, 4u);  // up(src), provOut(src), provIn(dst), down(dst)
}

TEST(Topology, OneHopForwardFlag) {
  const Topology t = small_topo();
  const auto hops = t.hops(PathSpec{0, 1, 2});
  ASSERT_EQ(hops.size(), 10u);
  int forwards = 0;
  for (const auto& h : hops) forwards += h.forward_after ? 1 : 0;
  EXPECT_EQ(forwards, 1);
  EXPECT_TRUE(hops[4].forward_after);
}

TEST(PathSpecHelpers, IntermediateCounting) {
  EXPECT_EQ((PathSpec{0, 1, kDirectVia}).intermediates(), 0);
  EXPECT_EQ((PathSpec{0, 1, 2}).intermediates(), 1);
}

TEST(Topology, LinkClassNames) {
  EXPECT_EQ(to_string(LinkClass::kUniversityI2), "us-university-i2");
  EXPECT_EQ(to_string(LinkClass::kCableDsl), "us-cable-dsl");
  EXPECT_EQ(to_string(LinkClass::kIntlIsp), "intl-isp");
}

}  // namespace
}  // namespace ronpath
