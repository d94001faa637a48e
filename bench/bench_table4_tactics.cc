// Reproduces Table 4: the route types between measurement nodes, plus the
// full scheme registry (which probes are one- or two-packet, their copy
// tactics, gaps and dataset membership).

#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "routing/schemes.h"
#include "util/table.h"

using namespace ronpath;

namespace {

bool in_set(std::span<const PairScheme> set, PairScheme s) {
  for (PairScheme x : set) {
    if (x == s) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  // A static catalog: only the common --seed/--quick flags are accepted.
  (void)bench::BenchArgs::parse(argc, argv, Duration::zero(), 0);
  std::printf("== Table 4 - route types ==\n");
  TextTable t4({"type", "description"});
  t4.set_align(1, TextTable::Align::kLeft);
  t4.add_row({"loss", "loss optimized path (via probing)"});
  t4.add_row({"lat", "latency optimized path (via probing)"});
  t4.add_row({"direct", "direct Internet path"});
  t4.add_row({"rand", "indirectly through a random node"});
  t4.print(std::cout);

  std::printf("\n== Scheme registry (probe methods built from Table 4 types) ==\n");
  TextTable t({"scheme", "copy 1", "copy 2", "gap", "same path", "2003", "wide", "narrow"});
  t.set_align(0, TextTable::Align::kLeft);
  for (const SchemeSpec& spec : all_schemes()) {
    t.add_row({std::string(spec.name), std::string(to_string(spec.first)),
               spec.second ? std::string(to_string(*spec.second)) : "-",
               spec.gap.is_zero() ? "-" : spec.gap.to_string(),
               spec.second_same_path ? "y" : "-",
               in_set(ron2003_probe_set(), spec.scheme) ? "y" : "-",
               in_set(ronwide_probe_set(), spec.scheme) ? "y" : "-",
               in_set(ronnarrow_probe_set(), spec.scheme) ? "y" : "-"});
  }
  t.print(std::cout);
  std::printf("(direct/lat rows of Table 5 are inferred from the first copies of\n"
              " direct rand / lat loss respectively, per the paper's footnote)\n");
  return 0;
}
