#include "net/scale_topology.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "util/rng.h"

namespace ronpath {
namespace {

struct Metro {
  const char* name;
  double lat_deg;
  double lon_deg;
  bool intl;  // outside North America -> international link classes
};

// World metro areas, roughly ordered by how early they appear as the
// metro count grows: North American backbone cities first (the paper's
// testbed is US-centric), then Europe and Asia-Pacific.
constexpr Metro kMetros[] = {
    {"nyc", 40.71, -74.01, false},    {"bos", 42.36, -71.06, false},
    {"chi", 41.88, -87.63, false},    {"sfo", 37.77, -122.42, false},
    {"sea", 47.61, -122.33, false},   {"lax", 34.05, -118.24, false},
    {"dfw", 32.78, -96.80, false},    {"atl", 33.75, -84.39, false},
    {"iad", 38.90, -77.04, false},    {"den", 39.74, -104.99, false},
    {"yyz", 43.65, -79.38, false},    {"mia", 25.76, -80.19, false},
    {"phx", 33.45, -112.07, false},   {"msp", 44.98, -93.27, false},
    {"slc", 40.76, -111.89, false},   {"pdx", 45.52, -122.68, false},
    {"lon", 51.51, -0.13, true},      {"ams", 52.37, 4.90, true},
    {"fra", 50.11, 8.68, true},       {"par", 48.86, 2.35, true},
    {"mad", 40.42, -3.70, true},      {"mil", 45.46, 9.19, true},
    {"sto", 59.33, 18.07, true},      {"dub", 53.35, -6.26, true},
    {"waw", 52.23, 21.01, true},      {"ath", 37.98, 23.73, true},
    {"tyo", 35.68, 139.69, true},     {"sel", 37.57, 126.98, true},
    {"hkg", 22.32, 114.17, true},     {"sin", 1.35, 103.82, true},
    {"syd", -33.87, 151.21, true},    {"akl", -36.85, 174.76, true},
    {"bom", 19.08, 72.88, true},      {"tpe", 25.03, 121.57, true},
    {"gru", -23.55, -46.63, true},    {"scl", -33.45, -70.67, true},
    {"mex", 19.43, -99.13, false},    {"jnb", -26.20, 28.05, true},
    {"tlv", 32.08, 34.78, true},      {"ist", 41.01, 28.98, true},
};
constexpr std::size_t kMetroCount = sizeof(kMetros) / sizeof(kMetros[0]);

// Weighted access-class mix. North American sites follow roughly the
// Table 1 composition (universities, ISP POPs, companies, consumer
// lines); international metros use the intl classes so params_for's
// intl factors apply.
LinkClass pick_class(bool intl, std::uint64_t roll) {
  if (intl) return roll < 55 ? LinkClass::kIntlUniversity : LinkClass::kIntlIsp;
  if (roll < 18) return LinkClass::kUniversityI2;
  if (roll < 40) return LinkClass::kUniversity;
  if (roll < 55) return LinkClass::kLargeIsp;
  if (roll < 70) return LinkClass::kSmallIsp;
  if (roll < 82) return LinkClass::kCompany;
  return LinkClass::kCableDsl;
}

}  // namespace

Topology scale_topology(const ScaleTopologyParams& params) {
  assert(params.nodes >= 2);
  std::size_t n_metros = params.metros;
  if (n_metros == 0) {
    n_metros = std::clamp<std::size_t>(params.nodes / 12, 4, kMetroCount);
  }
  n_metros = std::min(n_metros, kMetroCount);
  const std::size_t providers = std::max<std::size_t>(params.providers_per_metro, 1);

  const Rng root = Rng(params.seed).fork("scale-topo");
  std::vector<Site> sites;
  sites.reserve(params.nodes);
  for (std::size_t i = 0; i < params.nodes; ++i) {
    // Round-robin metro assignment spreads sites evenly; everything
    // random comes from a per-site fork, so one site's draws never
    // shift another's.
    const std::size_t mi = i % n_metros;
    const Metro& metro = kMetros[mi];
    Rng rng = root.fork(i);

    Site s;
    const std::size_t pi = (i / n_metros) % providers;
    char name[66];  // fits three 20-digit size_t fields: never truncates
    std::snprintf(name, sizeof name, "m%02zu-p%zu-s%04zu", mi, pi, i);
    s.name = name;
    s.location = metro.name;
    // Sites scatter ~0.3 degrees (roughly 30 km) around the metro
    // center: sub-ms propagation within a metro, realistic wide-area
    // delays across metros.
    s.lat_deg = metro.lat_deg + rng.uniform(-0.3, 0.3);
    s.lon_deg = metro.lon_deg + rng.uniform(-0.3, 0.3);
    s.link_class = pick_class(metro.intl, rng.next_below(100));
    s.in_2002_testbed = false;
    sites.push_back(std::move(s));
  }
  return Topology(std::move(sites));
}

}  // namespace ronpath
