// Engine comparison tour: the same label update executed by every
// engine a scenario can pick (engine=hw|linear|trie), with behaviour
// cross-checked and costs side by side.
//
//   $ ./hw_vs_sw
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "rtl/clock_model.hpp"
#include "sw/hw_engine.hpp"
#include "sw/linear_engine.hpp"
#include "sw/trie_engine.hpp"

using namespace empls;

namespace {

mpls::Packet make_packet(rtl::u32 label) {
  mpls::Packet p;
  p.dst = mpls::Ipv4Address::from_octets(10, 0, 0, 1);
  p.stack.push(mpls::LabelEntry{label, 3, false, 64});
  return p;
}

}  // namespace

int main() {
  constexpr rtl::u32 kTableSize = 256;
  constexpr rtl::u32 kTarget = 200;  // hit position 200 of 256

  std::vector<std::unique_ptr<sw::LabelEngine>> engines;
  engines.push_back(std::make_unique<sw::HwEngine>());
  engines.push_back(std::make_unique<sw::LinearEngine>());
  engines.push_back(std::make_unique<sw::TrieEngine>());

  std::printf("one SWAP through every label engine "
              "(table: %u entries, hit position %u)\n\n",
              kTableSize, kTarget);
  std::printf("%-8s %-10s %-12s %-14s %-12s\n", "engine", "result",
              "new top", "modeled hw", "host wall");

  const rtl::ClockModel clock;
  for (auto& engine : engines) {
    for (rtl::u32 i = 1; i <= kTableSize; ++i) {
      engine->write_pair(
          2, mpls::LabelPair{i, 10000 + i, mpls::LabelOp::kSwap});
    }
    mpls::Packet p = make_packet(kTarget);
    const auto t0 = std::chrono::steady_clock::now();
    const auto outcome = engine->update(p, 2, hw::RouterType::kLsr);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();

    char modeled[48];
    if (outcome.hw_cycles > 0) {
      std::snprintf(modeled, sizeof modeled, "%llu cyc %.2fus",
                    static_cast<unsigned long long>(outcome.hw_cycles),
                    clock.microseconds(outcome.hw_cycles));
    } else {
      std::snprintf(modeled, sizeof modeled, "n/a");
    }
    std::printf("%-8s %-10s %-12u %-14s %.2f us\n",
                std::string(engine->name()).c_str(),
                outcome.discarded ? "discard" : "swap",
                p.stack.empty() ? 0 : p.stack.top().label, modeled, wall_us);
  }

  std::printf(
      "\nreading the table:\n"
      " * hw-rtl simulates the paper's FPGA datapath cycle by cycle; its\n"
      "   modeled time includes the 3-cycle stack load/unload transfers.\n"
      " * linear reports the Table 6 analytic cost of identical hardware.\n"
      " * trie is the production FIB: a table probe instead of a scan on\n"
      "   the host, charged the same modeled cycles as linear.\n");
  return 0;
}
