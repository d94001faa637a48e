// Reproduces Table 1 (the 30 measurement hosts) and Table 2 (node
// category distribution). These are static catalogs; the bench verifies
// the category counts against the paper's published distribution.

#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "core/testbed.h"
#include "util/table.h"

using namespace ronpath;

int main(int argc, char** argv) {
  // A static catalog: only the common --seed/--quick flags are accepted.
  (void)bench::BenchArgs::parse(argc, argv, Duration::zero(), 0);
  const Topology topo = testbed_2003();

  std::printf("== Table 1 - testbed hosts ==\n");
  TextTable t1({"Name", "Location", "Class", "I2", "2002"});
  t1.set_align(1, TextTable::Align::kLeft);
  t1.set_align(2, TextTable::Align::kLeft);
  for (const Site& s : topo.sites()) {
    t1.add_row({s.name, s.location, std::string(to_string(s.link_class)),
                is_internet2(s) ? "*" : "", s.in_2002_testbed ? "y" : ""});
  }
  t1.print(std::cout);
  std::printf("total hosts: %zu (paper: 30)\n\n", topo.size());

  std::printf("== Table 2 - node category distribution ==\n");
  TextTable t2({"Category", "#", "paper"});
  t2.set_align(0, TextTable::Align::kLeft);
  const int paper_counts[] = {7, 4, 5, 5, 3, 1, 3, 2};
  const auto cats = table2_categories(topo);
  bool all_match = true;
  for (std::size_t i = 0; i < cats.size(); ++i) {
    t2.add_row({cats[i].category, TextTable::num(static_cast<std::int64_t>(cats[i].count)),
                TextTable::num(static_cast<std::int64_t>(paper_counts[i]))});
    all_match &= cats[i].count == paper_counts[i];
  }
  t2.print(std::cout);
  std::printf("category counts match the paper: %s\n", all_match ? "yes" : "NO");

  const Topology old = testbed_2002();
  std::printf("\n2002 testbed subset: %zu hosts (paper: 17)\n", old.size());
  return all_match ? 0 : 1;
}
