// Ablation X3: information-base organisation.
//
// DESIGN.md calls out the paper's central design choice — a single
// shared comparator scanning each level linearly (3n+5 cycles) — and two
// alternatives an FPGA could implement instead:
//
//   * CAM: one comparator per entry, constant 7-cycle lookups, at the
//     resource cost of 1024 parallel comparators + priority encoder;
//   * hashed memory: constant ~11-cycle lookups (hash, probe, verify)
//     with one comparator, at the cost of collision-handling logic.
//
// This bench tabulates modelled lookup latency vs occupancy and the
// comparator-resource proxy for each organisation, exposing the
// latency/area trade-off the paper's choice sits on.
#include <string>

#include "baseline_engines.hpp"
#include "bench_util.hpp"
#include "hw/cycle_model.hpp"
#include "rtl/clock_model.hpp"

using namespace empls;

namespace {

/// Modelled hashed-info-base lookup: hash (2) + dispatch (2) + probe
/// read (3) + compare/verify (3) + result (1).  Collisions would add
/// probes; we charge the collision-free path, the best case for hash.
constexpr rtl::u64 kHashSearchCycles = 11;

}  // namespace

int main() {
  std::printf("== X3 ablation: information-base organisation ==\n\n");
  bench::Checks checks;
  const rtl::ClockModel clock;

  bench::Table lat({"avg hit depth k", "linear (cycles)", "CAM (cycles)",
                    "hash (cycles)", "linear (us)", "CAM (us)"});
  for (rtl::u64 k : {1ull, 8ull, 32ull, 128ull, 512ull, 1024ull}) {
    const rtl::u64 linear = hw::search_cycles(k);
    char lus[32];
    char cus[32];
    std::snprintf(lus, sizeof lus, "%.2f", clock.microseconds(linear));
    std::snprintf(cus, sizeof cus, "%.2f",
                  clock.microseconds(bench::kCamSearchCycles));
    lat.add_row({std::to_string(k), std::to_string(linear),
                 std::to_string(bench::kCamSearchCycles),
                 std::to_string(kHashSearchCycles), lus, cus});
  }
  lat.print();
  lat.write_csv("ablation_search.csv");

  std::printf("\nresource proxy (comparator bit-slices per level):\n");
  bench::Table res({"organisation", "level 1 (32-bit idx)",
                    "levels 2/3 (20-bit idx)", "extra logic"});
  res.add_row({"linear (paper)", "32", "20", "address counters"});
  res.add_row({"CAM",
               std::to_string(bench::cam_comparator_bits(1024, 32)),
               std::to_string(bench::cam_comparator_bits(1024, 20)),
               "priority encoder"});
  res.add_row({"hash", "32", "20", "hash unit + collision probes"});
  res.print();

  // The trade-off the table shows: CAM is faster than the linear scan
  // for any occupancy above ~1, but costs three orders of magnitude
  // more comparator area.
  checks.expect_true("CAM beats linear for k >= 1",
                     bench::kCamSearchCycles <= hw::search_cycles(1));
  checks.expect_true(
      "linear beats CAM on area by >100x",
      bench::cam_comparator_bits(1024, 20) > 100 * 20);
  checks.expect_true("hash latency is occupancy-independent and close to CAM",
                     kHashSearchCycles <= hw::search_cycles(2));

  // Behavioural equivalence of the CAM engine (same semantics, different
  // cost model): one swap through each engine agrees.
  {
    bench::CamEngine cam;
    sw::LinearEngine lin;
    for (auto* e : {static_cast<sw::LabelEngine*>(&cam),
                    static_cast<sw::LabelEngine*>(&lin)}) {
      e->write_pair(2, mpls::LabelPair{40, 77, mpls::LabelOp::kSwap});
    }
    mpls::Packet p1;
    p1.stack.push(mpls::LabelEntry{40, 2, false, 64});
    mpls::Packet p2 = p1;
    const auto o1 = cam.update(p1, 2, hw::RouterType::kLsr);
    const auto o2 = lin.update(p2, 2, hw::RouterType::kLsr);
    checks.expect_true("CAM and linear engines agree on behaviour",
                       !o1.discarded && !o2.discarded &&
                           p1.stack.top().label == p2.stack.top().label);
    checks.expect_true("CAM is cheaper in modelled cycles",
                       o1.hw_cycles < o2.hw_cycles);
  }

  return checks.exit_code();
}
