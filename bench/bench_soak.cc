// Soak/checkpoint micro-benchmark: snapshot payload size, save and
// restore cost, and the end-to-end throughput tax of checkpointing at
// several cadences. Tracks the cost knobs behind the soak harness
// (tools/soak) so checkpoint overhead regressions are visible.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/fault_matrix.h"
#include "fault/scenarios.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "snapshot/world.h"
#include "util/table.h"

using namespace ronpath;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, Duration::hours(1),
                                            bench::kDuration | bench::kCsv);

  FaultMatrixConfig cfg;
  cfg.node_count = 8;
  cfg.seed = args.seed;
  cfg.measured = args.quick ? Duration::minutes(10) : args.duration;
  cfg.send_interval = Duration::millis(100);
  const Scenario& scenario = *find_scenario("link-flap");
  const FaultScheme scheme = FaultScheme::kHybrid;

  std::printf("== soak checkpoint bench ==\n");
  std::printf("scenario %s / %s | %zu nodes | measured %s | seed %llu\n",
              std::string(scenario.name).c_str(), std::string(to_string(scheme)).c_str(),
              cfg.node_count, cfg.measured.to_string().c_str(),
              static_cast<unsigned long long>(args.seed));

  // Snapshot size and save/restore cost at mid-run.
  SimWorld mid(scenario, scheme, cfg, cfg.seed);
  mid.advance_to(mid.total_sends() / 2);

  constexpr int kReps = 50;
  snap::Encoder sized;
  mid.save_state(sized);
  const std::size_t payload_bytes = sized.bytes().size();
  const std::size_t file_bytes = snap::seal(mid.fingerprint(), sized.bytes()).size();

  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kReps; ++i) {
    snap::Encoder e;
    mid.save_state(e);
    if (e.bytes().size() != payload_bytes) return 1;  // determinism guard
  }
  const double save_us = seconds_since(t0) / kReps * 1e6;

  SimWorld target(scenario, scheme, cfg, cfg.seed);
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kReps; ++i) {
    snap::Decoder d(sized.bytes());
    target.restore_state(d);
  }
  const double restore_us = seconds_since(t0) / kReps * 1e6;

  std::printf("snapshot at send %zu/%zu: payload %zu bytes, sealed file %zu bytes\n",
              mid.next_send(), mid.total_sends(), payload_bytes, file_bytes);
  std::printf("save   %.1f us/op  (%d reps)\n", save_us, kReps);
  std::printf("restore %.1f us/op (%d reps, into a live world)\n", restore_us, kReps);

  // Throughput tax: full runs with checkpoints (save + seal) at several
  // cadences, against a checkpoint-free baseline.
  struct CadenceRow {
    std::size_t every;  // 0 = no checkpoints
    double wall_s = 0.0;
    std::size_t checkpoints = 0;
  };
  std::vector<CadenceRow> rows{{0}, {5000}, {1000}, {200}};
  for (CadenceRow& row : rows) {
    SimWorld world(scenario, scheme, cfg, cfg.seed);
    const std::size_t total = world.total_sends();
    t0 = std::chrono::steady_clock::now();
    if (row.every == 0) {
      world.run_to_end();
    } else {
      for (std::size_t next = row.every; next < total; next += row.every) {
        world.advance_to(next);
        snap::Encoder e;
        world.save_state(e);
        (void)snap::seal(world.fingerprint(), e.bytes());
        ++row.checkpoints;
      }
      world.run_to_end();
    }
    row.wall_s = seconds_since(t0);
  }

  const double base = rows[0].wall_s;
  std::printf("\ncheckpoint cadence sweep (%zu sends):\n", mid.total_sends());
  std::printf("  %-18s %10s %12s %10s\n", "cadence", "wall s", "checkpoints", "overhead");
  for (const CadenceRow& row : rows) {
    const std::string label =
        row.every == 0 ? "none (baseline)" : "every " + std::to_string(row.every);
    std::printf("  %-18s %10.3f %12zu %+9.1f%%\n", label.c_str(), row.wall_s, row.checkpoints,
                base > 0.0 ? (row.wall_s / base - 1.0) * 100.0 : 0.0);
  }

  if (!args.csv_path.empty()) {
    std::ofstream os;
    bench::open_output_or_die(os, args.csv_path);
    CsvWriter csv(os);
    csv.row({"metric", "value"});
    csv.row({"payload_bytes", TextTable::num(static_cast<std::int64_t>(payload_bytes))});
    csv.row({"file_bytes", TextTable::num(static_cast<std::int64_t>(file_bytes))});
    csv.row({"save_us", TextTable::num(save_us, 2)});
    csv.row({"restore_us", TextTable::num(restore_us, 2)});
    for (const CadenceRow& row : rows) {
      csv.row({"wall_s_every_" + std::to_string(row.every), TextTable::num(row.wall_s, 4)});
    }
  }
  return 0;
}
